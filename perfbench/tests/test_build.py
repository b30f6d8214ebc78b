"""run.build() keeps checkouts apart: two source trees built into one
CARGO_TARGET_DIR each get a binary of their own sources.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402

CMAKE = """cmake_minimum_required(VERSION 3.16)
project(fake CXX)
add_executable(hrt_e2e main.cpp)
"""

MAIN = """#include <cstdio>
int main() { std::puts("%s"); }
"""


def fake_checkout(parent, name):
    """A checkout whose hrt_e2e prints `name`."""
    root = os.path.join(parent, name)
    os.makedirs(os.path.join(root, "src", "rt"))
    os.makedirs(os.path.join(root, "perfbench"))
    open(os.path.join(root, "src", "rt", "system.hpp"), "w").close()
    with open(os.path.join(root, "perfbench", "CMakeLists.txt"), "w") as f:
        f.write(CMAKE)
    with open(os.path.join(root, "perfbench", "main.cpp"), "w") as f:
        f.write(MAIN % name)
    return root


class BuildDirTest(unittest.TestCase):
    def test_two_checkouts_share_a_target_dir(self):
        with tempfile.TemporaryDirectory() as tmp:
            target = os.path.join(tmp, "target")
            with mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": target}):
                built = {}
                for name in ("parent", "change"):
                    root = fake_checkout(tmp, name)
                    self.assertTrue(run.build_dir(root).startswith(target))
                    built[name] = run.build(root)
            self.assertNotEqual(built["parent"], built["change"])
            for name, binary in built.items():
                out = subprocess.run([binary], stdout=subprocess.PIPE,
                                     text=True, check=True).stdout
                self.assertEqual(out.strip(), name)

    def test_default_target_is_inside_the_checkout(self):
        with mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": ""}):
            self.assertTrue(run.build_dir("/a/b").startswith(
                os.path.join("/a/b", ".bench_build")))


if __name__ == "__main__":
    unittest.main()
