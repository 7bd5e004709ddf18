"""A command that exits or crashes is one failed operation, not a dead worker."""

import argparse

import worker


def test_run_op_records_an_argparse_exit_as_the_exit_code():
    def main(argv):
        argparse.ArgumentParser().parse_args(argv)

    rc, seconds, err = worker._run_op(main, ["--no-such-flag"])
    assert rc == 2 and seconds >= 0.0 and "unrecognized arguments" in err


def test_run_op_records_a_crash_as_minus_one():
    def main(argv):
        raise ValueError("boom")

    rc, _, err = worker._run_op(main, [])
    assert rc == -1 and "ValueError: boom" in err
