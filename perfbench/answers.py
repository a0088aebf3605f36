"""Known answers for every benchmark command.

The table lives apart from the code being timed, and every answer is checked
after its command returns, outside the timed interval.  Reports are compared
line by line: each `key=value` line below must appear exactly, and no line
may appear that the table does not list.  Trajectory files of the `tape-*`
workloads are checked against closed-form tapes built in `workloads.py`.
"""
import re

# verify and enumerate commands of the enum-verify workload, by label.
ENUM_VERIFY = {
    "enumerate": {
        "exit": 0,
        "report": {"members": "3868"},
        # The listing written by --output: its header line and the SHA-256 of
        # the whole file.  The listing is sorted, so it is byte-stable.
        "listing_header": "# 3868 graphs",
        "listing_sha256":
            "ad06b558fc5cdddc0ee0ce9e0f3786c239b923871e58d5e10fa6a24a1066ccfe",
    },
    "verify-moving-head-all": {
        "exit": 0,
        "report": {
            "dynamics": "moving-head",
            "family": "all",
            "members": "674",
            "bijective": "ok",
            "vertex_preserving": "ok",
            "exception_set": "",
            "class_preservation": "ok",
            "inverse_composition": "ok",
            "result": "pass",
        },
    },
    "verify-turtle-all": {
        "exit": 0,
        "report": {
            "dynamics": "turtle",
            "family": "all",
            "members": "160",
            "bijective": "ok",
            "vertex_preserving": "exceptions",
            "exception_set": "1v;2v",
            "class_preservation": "ok",
            "inverse_composition": "ok",
            "result": "pass",
        },
    },
    # A known negative verdict: the grid rule leaves the enumerated family.
    "verify-inflating-grid-all": {
        "exit": 1,
        "report": {
            "dynamics": "inflating-grid",
            "family": "all",
            "members": "2676",
            # The message names the first offending edge as the program
            # meets it, in frozenset order, which follows the string hash
            # seed: a/b, b/a, c/d or d/c, differing between processes.
            "bijective": re.compile(
                r"inflating-grid: edge pairing ports ([ab]/[ab]|[cd]/[cd]) "
                r"is not a grid edge"),
            "vertex_preserving": "skipped",
            "exception_set": "",
            "class_preservation": "skipped",
            "inverse_composition": "skipped",
            "result": "fail",
        },
    },
    "verify-moving-head-tape-closure": {
        "exit": 0,
        "report": {
            "dynamics": "moving-head",
            "family": "tape-closure",
            "members": "370",
            "bijective": "ok",
            "vertex_preserving": "ok",
            "exception_set": "",
            "class_preservation": "ok",
            "inverse_composition": "ok",
            "result": "pass",
        },
    },
}

CHECK_BLOCKS = {
    "exit": 0,
    "report": {
        "dynamics": "moving-head",
        "members": "20",
        "block_identity": "ok",
        "locality_radius": "2",
        "observed_depth": "4",
        "depth_bound": "64",
        "result": "pass",
    },
}

# Fixed report lines of the trajectory and decomposition commands; the
# output directory and stage count lines vary with the input and are
# checked by the workload itself.
RUN_MOVING_HEAD = {"dynamics": "moving-head"}
RUN_RULE_FILE = {"dynamics": "rule-table"}
DECOMPOSE = {"dynamics": "moving-head", "matches_direct_step": "yes"}

# Set-up cross-check: enumeration against the brute-force generator.
# (ports, vertex labels, max vertices, member count)
BRUTE_FORCE = (
    ("ab", "01", 4, 796),
    ("abcd", "0", 2, 674),
)

# Disks of all bare and single-head tapes of at most 6 cells, radius 1.
IDENTITY_RULE_ENTRIES = 57
