"""Pass/fail check reports shared by the theorem and dynamics-suite drivers."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class Row:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    """Named list of check rows; the report passes when every row does."""

    name: str
    rows: list[Row] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def add(self, label: str, ok: bool, detail: str = ""):
        self.rows.append(Row(label, ok, detail))

    def lines(self) -> list[str]:
        """One "[PASS] label  (detail)" or "[FAIL] ..." line per row."""
        out = []
        for r in self.rows:
            mark = "PASS" if r.ok else "FAIL"
            suffix = f"  ({r.detail})" if r.detail else ""
            out.append(f"[{mark}] {r.label}{suffix}")
        return out

    def to_dict(self) -> dict:
        """{"ok": ..., "checks": [{"label", "ok", "detail"}, ...]}."""
        return {"ok": self.ok, "checks": [asdict(r) for r in self.rows]}
