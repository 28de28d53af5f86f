"""Inputs, checks and tracing for the cef benchmark (``perfbench/run.py``)."""
