"""The unit of lint output: one finding at one source location."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``text`` carries the stripped source line (the JSON report's
    ``text`` key).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    text: str = ""

    @property
    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path.replace("\\", "/"),
                "line": self.line, "col": self.col,
                "message": self.message, "text": self.text}
