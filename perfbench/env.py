"""What a result depends on besides the code: machine, versions, disk."""

from __future__ import annotations

import ctypes
import ipaddress
import os
import platform
import resource
import sys

#: ``statfs(2)`` magic numbers of the filesystems a checkout is likely on.
_FS_MAGIC = {
    0xEF53: "ext2/3/4",
    0x01021994: "tmpfs",
    0x794C7630: "overlayfs",
    0x58465342: "xfs",
    0x9123683E: "btrfs",
    0x6969: "nfs",
    0x2FC12FC1: "zfs",
    0x65735546: "fuse",
    0x01021997: "9p",
}


def filesystem_type(path: str) -> str:
    """The filesystem ``path`` lives on, from ``statfs(2)``'s ``f_type``."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        buf = ctypes.create_string_buffer(256)
        if libc.statfs(os.fsencode(path), buf) != 0:
            return "unknown"
    except (OSError, AttributeError):
        return "unknown"
    magic = ctypes.c_long.from_buffer(buf).value & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def is_loopback(host: str) -> bool:
    return ipaddress.ip_address(host).is_loopback


def peak_rss_mb(workers: bool = True) -> float:
    """Peak resident memory of this process, plus its largest finished
    worker when ``workers`` is true.

    ``RUSAGE_CHILDREN`` reports the largest peak among children that have
    been waited for, so worker processes count once they have exited.
    """
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        total += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return total / 1024.0  # ru_maxrss is in KiB on Linux


def worker_peak_rss_mb() -> float:
    """Peak resident memory of the largest finished worker process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def environment(seed: int, work_dir: str) -> dict:
    """The record every run prints next to its numbers.

    Every socket the workloads open is on a loopback address; the
    networked workloads check that where they open it and fail otherwise.
    """
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "checkpoint_fs": filesystem_type(work_dir),
        "all_traffic_loopback": True,
    }
