"""REP009 fixture: blocking calls reachable from coroutines."""

import asyncio
import time


async def tick():
    time.sleep(0.01)  # expect: REP009
    await asyncio.sleep(0)


async def pump():
    relay()


def relay():
    settle()


def settle():
    time.sleep(0.1)  # expect: REP009


async def sanctioned():
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, lambda: time.sleep(0.1))


async def collect(conn):
    return gather(conn)


def gather(conn):
    return unpack(conn)


def unpack(conn):
    header = conn.recv_bytes()  # expect: REP009
    return header + conn.recv()  # expect: REP009

