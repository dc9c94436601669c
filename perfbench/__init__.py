"""Closed-loop benchmark of the mcprep command line; see README.md."""
