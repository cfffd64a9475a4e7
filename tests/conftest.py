import os
import shutil
import tempfile

_hypothesis_dir = None


def pytest_configure(config):
    # hypothesis writes a constants cache under HYPOTHESIS_STORAGE_DIRECTORY
    # (default ./.hypothesis) even with database=None; keep it out of the
    # checkout unless the caller chose a directory.
    global _hypothesis_dir
    if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
        _hypothesis_dir = tempfile.mkdtemp(prefix="hypothesis-")
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _hypothesis_dir


def pytest_unconfigure(config):
    if _hypothesis_dir is not None:
        os.environ.pop("HYPOTHESIS_STORAGE_DIRECTORY", None)
        shutil.rmtree(_hypothesis_dir, ignore_errors=True)
