import pytest

from oracles import linear_patch_case


@pytest.fixture
def patch_case():
    return linear_patch_case()
