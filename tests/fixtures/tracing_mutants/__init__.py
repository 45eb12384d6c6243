"""Seeded orphan-span mutants RL106 must keep flagging.

Mirrors ``tests/fixtures/concurrency_mutants``: a deliberately broken
miniature of the serve execution path, linted by tests and CI to
prove the tracing analyzer still catches the bug class it was built
for — a serving span opened without naming its trace.
"""
