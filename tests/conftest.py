import os
from pathlib import Path

import numpy as np
import pytest

from opticonv import datapipe
from opticonv.optics import OpticalConfig

import synthcifar
import synthmnist

DATA_DIR = Path(os.environ.get("OPTICONV_DATA_DIR", "/root/data"))


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: full acceptance-gate criteria")


_CRITERION_LINES: list[tuple[str, bool, str]] = []


@pytest.fixture(scope="session")
def record_criterion():
    """Collects one pass/fail line per acceptance criterion for the final
    terminal summary."""

    def rec(label: str, passed: bool, detail: str = ""):
        _CRITERION_LINES.append((label, passed, detail))

    return rec


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for label, passed, detail in _CRITERION_LINES:
            status = "PASS" if passed else "FAIL"
            terminalreporter.write_line(f"[{status}] {label}" + (f" -- {detail}" if detail else ""))


@pytest.fixture(scope="session")
def paper_config() -> OpticalConfig:
    return OpticalConfig()


def _require(path: Path, what: str):
    if not path.exists():
        pytest.skip(f"{what} not present under {path}")
    return path


@pytest.fixture(scope="session")
def mnist():
    return datapipe.load_mnist(_require(DATA_DIR / "mnist", "MNIST IDX files"))


@pytest.fixture(scope="session")
def synthetic_mnist_dir(tmp_path_factory) -> Path:
    """Seeded MNIST-format IDX files, for the code paths that read a
    ``paths.mnist`` directory and must run without the real dataset."""
    return synthmnist.write_idx(tmp_path_factory.mktemp("synthetic-mnist"), seed=0)


@pytest.fixture(scope="session")
def synthetic_cifar_dir(tmp_path_factory) -> Path:
    """Seeded CIFAR-10 binary batches, for the code paths that read a
    ``paths.cifar10`` directory and must run without the real dataset."""
    return synthcifar.write_bins(tmp_path_factory.mktemp("synthetic-cifar"), seed=0)


@pytest.fixture(scope="session")
def cifar10():
    return datapipe.load_cifar10(_require(DATA_DIR / "cifar-10-batches-bin", "CIFAR-10 batches"))


@pytest.fixture(scope="session")
def quickdraw():
    return datapipe.load_quickdraw(_require(DATA_DIR / "quickdraw", "Quickdraw bitmap exports"))


@pytest.fixture(scope="session")
def mnist_bits(mnist):
    """Binarized MNIST splits at the 80% threshold (train capped for speed)."""
    train = np.stack([datapipe.binarize_gray(x, 0.8) for x in mnist.train_images[:8000]])
    test = np.stack([datapipe.binarize_gray(x, 0.8) for x in mnist.test_images[:2000]])
    return {
        "train": (train, mnist.train_labels[:8000]),
        "test": (test, mnist.test_labels[:2000]),
    }
