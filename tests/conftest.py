import contextlib
import errno

import pytest

from rolemodel import Simplex, bec, build_joint, general_channel, to_matrix, z_channel


@pytest.fixture(scope="session")
def joint_a():
    """Uniform binary source through two cascaded Z-channels, crossover 1/2."""
    stage = to_matrix(z_channel(0.5))
    return build_joint(Simplex([0.5, 0.5]), stage, stage)


@pytest.fixture(scope="session")
def joint_b():
    """Uniform binary source through a BEC(1/4), then a noisy ternary-to-binary stage."""
    yz = to_matrix(general_channel([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8]]))
    return build_joint(Simplex([0.5, 0.5]), to_matrix(bec(0.25)), yz)


@pytest.fixture()
def disk_full(monkeypatch):
    """disk_full(module) makes the module's create_text a file whose every
    write puts half its text on disk and then fails with ENOSPC; the
    module's own create_text still opens, and should remove, the file."""

    class HalfWritten:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def patch(module):
        create_text = module.create_text

        @contextlib.contextmanager
        def filling(path):
            with create_text(path) as fh:
                yield HalfWritten(fh)

        monkeypatch.setattr(module, "create_text", filling)

    return patch
