"""Forked children that report back through an anonymous temporary file.

The one owner of the package's child-process protocol, which the tau sweep's
workers and the CLI's snapshot writer share.  Child(body, *args) opens an
anonymous temporary file and forks a child (Linux or macOS) that runs
body(out, *args), where body appends record()s to the file out.  A record is
one pickled (index, payload) pair, and a payload that is an exception is a
failure.  The child runs whatever the parent had bound when it forked, and
leaves with os._exit, so none of the parent's atexit handlers runs and none
of its buffered stdio is flushed there: with status 0 if body returns, and
with status 1 if body raises, the exception first appended to out as the
child's one failure record, (None, exc).  The parent reaps the child with
join() and reads the records back; close() kills and reaps a child that
still runs, and closes the file, so no child outlives its owner.
"""

import os
import pickle
import tempfile


def record(index, payload):
    """The bytes a child appends for one result: its pickled (index,
    payload).  An exception that does not survive pickle goes as a
    RuntimeError carrying its type and text, and so does a result that does
    not pickle, with the pickling error's."""
    try:
        data = pickle.dumps((index, payload), pickle.HIGHEST_PROTOCOL)
        if isinstance(payload, BaseException):
            pickle.loads(data)
    except Exception as exc:
        bad = payload if isinstance(payload, BaseException) else exc
        data = pickle.dumps((index, RuntimeError(f"{type(bad).__name__}: {bad}")))
    return data


class Child:
    """One forked child running body(out, *args); see the module docstring.

    pid is the child's until join() or close() reaps it, then None.  If the
    fork itself fails, its exception propagates and the file is closed.
    """

    def __init__(self, body, *args):
        self.out = tempfile.TemporaryFile()
        try:
            self.pid = os.fork()
        except BaseException:
            self.out.close()
            raise
        if self.pid == 0:  # the child's whole life; it never returns
            status = 1
            try:
                try:
                    body(self.out, *args)
                except BaseException as exc:  # raised by the parent
                    self.out.write(record(None, exc))
                    self.out.flush()
                else:
                    self.out.flush()
                    status = 0
            finally:
                os._exit(status)

    def join(self):
        """Reap the child; returns (records, how).

        records are the (index, payload) pairs it appended, in order,
        up to the file's end or a record cut short; how is "exited with
        status N" or "was killed by signal N".
        """
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        self.out.seek(0)
        records = []
        while True:
            try:
                records.append(pickle.load(self.out))
            except (EOFError, pickle.UnpicklingError):  # the end, or a record cut short
                break
        return records, f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"

    def close(self):
        """Kill and reap the child if it still runs; close the file."""
        if self.pid is not None:
            # imported on first use, so that importing this module (the CLI
            # does) does not load it
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.out.close()
