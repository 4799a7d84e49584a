import gc
import weakref

import pytest

from epsstokes import harness


@pytest.fixture(scope="session")
def acceptance_run():
    """One full acceptance run shared by every test that inspects it.

    Returns the report and, in build order, each Discretization the battery
    built: its vertex count, a weakref to it, and the vertex counts of the
    Discretizations built before it that were still alive when it was built.
    """
    builds = []
    discretization = harness.Discretization

    def recording(mesh):
        alive = [nv for nv, ref, _ in builds if ref() is not None]
        disc = discretization(mesh)
        builds.append((mesh.num_vertices, weakref.ref(disc), alive))
        return disc

    collecting = gc.isenabled()
    gc.disable()        # what is dead by then was freed by refcounting alone
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "Discretization", recording)
            report = harness.run_acceptance(harness.RunConfig())
    finally:
        if collecting:
            gc.enable()
    return report, builds


@pytest.fixture(scope="session")
def acceptance_report(acceptance_run):
    return acceptance_run[0]
