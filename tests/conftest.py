"""Shared fixtures: enumerated families, built once per session."""
import gc

import pytest

from cgd import Alphabets, enumerate_family
from cgd.families import TAPE_ALPHABETS, bare_tapes, shift_closure, single_head_tapes
from cgd.reversibility import GraphFamily

AB_SINGLETON = Alphabets.make("ab", vertex_labels=("0",))


@pytest.fixture(autouse=True)
def collector_left_running():
    """Fail a test that ends with the cyclic garbage collector disabled:
    `cli.main` pauses it only while a command runs, and a test that pauses
    it must restore it.  Re-enable it first, so one leak fails one test."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture(scope="session")
def ab_family_6():
    return enumerate_family(AB_SINGLETON, 6)


@pytest.fixture(scope="session")
def ab_family_4(ab_family_6):
    members = [g for g in ab_family_6 if len(g.vertices) <= 4]
    return GraphFamily.from_graphs(members, AB_SINGLETON)


@pytest.fixture(scope="session")
def abcd_family_2():
    """Every graph of at most 2 vertices over the tape alphabets: 66 of
    the 674 have a non-trivial symmetry."""
    return enumerate_family(TAPE_ALPHABETS, 2)


@pytest.fixture(scope="session")
def abcd_family_3():
    """Every graph of at most 3 vertices over the tape alphabets: 60,290,
    the suite's largest enumeration, built once for the tests that read
    it whole."""
    return enumerate_family(TAPE_ALPHABETS, 3)


@pytest.fixture(scope="session")
def head_tapes_5():
    return GraphFamily.from_graphs(single_head_tapes(5), TAPE_ALPHABETS)


@pytest.fixture(scope="session")
def tape_closure_5():
    members = bare_tapes(5) + single_head_tapes(5)
    return GraphFamily.from_graphs(shift_closure(members), TAPE_ALPHABETS)
