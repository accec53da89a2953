"""The host: its record, the speed probe, and timed child processes."""

import datetime
import os
import subprocess
import threading
import time


def host_record():
    """Cores, CPU model, rustc version and date, stamped into every
    artifact so figures from different machines are never compared as
    like-for-like."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True,
                               text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "rustc": rustc,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


class Probe:
    """The host-speed probe, a long-lived helper process: each call runs
    the fixed probe work once and returns its duration in ms."""

    def __init__(self, helper):
        self.proc = subprocess.Popen([helper, "probe"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("probe helper exited")
        return int(line) / 1e6

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Timed:
    """One finished child process: exit code, output, wall ms, peak RSS."""

    def __init__(self, code, stdout, stderr, wall_ms, maxrss_kb):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.wall_ms, self.maxrss_kb = wall_ms, maxrss_kb


def run_timed(argv, workdir, timeout=120):
    """Runs ``argv`` to completion, its output captured through files in
    the ``workdir`` directory. Wall time spans spawn to reap; the peak RSS
    is the child's own ``ru_maxrss`` from ``wait4``, the kernel's VmHWM
    for that process."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = (time.perf_counter() - t) * 1000
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        stdout = f.read()
    with open(err_path) as f:
        stderr = f.read()
    return Timed(proc.returncode, stdout, stderr, wall, usage.ru_maxrss)
