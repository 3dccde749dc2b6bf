import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
# keep the shared checks in helpers.py live under ``python -O`` too
pytest.register_assert_rewrite("helpers")
