"""OpenQASM 2.0 export / import for the circuit IR.

Lets compiled circuits leave the library (e.g. toward a hardware provider
or Qiskit for cross-checking) and supports a round-trip subset: the gate
vocabulary the compilers emit (x, y, z, h, s, sdg, rx, ry, rz, cx, cz,
swap, barrier, measure).

Parse failures raise :class:`QasmError`, a diagnostic-style error that
carries the 1-based line number and the offending source line, so a bad
corpus file points at its own defect instead of at the parser.  The
parser is safe on hostile text: rotation angles go through a small
recursive-descent evaluator (numbers, ``pi``, ``+ - * / ( )``, unary
signs -- no exponentiation, bounded nesting) that rejects non-finite
results, and register sizes and qubit indices are bounded before they
are converted.
"""

from __future__ import annotations

import math
import re
from typing import Callable

from repro.circuit.circuit import Circuit
from repro.circuit.gates import Gate

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

_ONE_QUBIT = {"x", "y", "z", "h", "s", "sdg"}
_ROTATION = {"rx", "ry", "rz"}
_TWO_QUBIT = {"cx", "cz", "swap"}

#: Largest accepted ``qreg`` size: far above any device in the library,
#: small enough that a hostile file cannot request a huge register.
MAX_QUBITS = 1024

#: Deepest accepted parenthesis nesting inside a rotation angle.
_MAX_ANGLE_DEPTH = 32

#: Operand arity of every parseable gate mnemonic.
_ARITY = {name: 1 for name in _ONE_QUBIT | _ROTATION}
_ARITY.update({name: 2 for name in _TWO_QUBIT})


class QasmError(ValueError):
    """A malformed OpenQASM input, located at its source line."""

    def __init__(
        self,
        message: str,
        *,
        line_number: int | None = None,
        line: str | None = None,
    ) -> None:
        self.line_number = line_number
        self.line = line
        located = message
        if line_number is not None:
            located = f"line {line_number}: {message}"
        if line is not None:
            located = f"{located}\n    {line.strip()}"
        super().__init__(located)


def to_qasm(circuit: Circuit) -> str:
    """Serialize a circuit to OpenQASM 2.0 text."""
    lines = [_HEADER + f"qreg q[{circuit.num_qubits}];"]
    has_measure = any(g.name == "measure" for g in circuit.gates)
    if has_measure:
        lines.append(f"creg c[{circuit.num_qubits}];")
    for gate in circuit.gates:
        lines.append(_gate_to_qasm(gate))
    return "\n".join(lines) + "\n"


def _gate_to_qasm(gate: Gate) -> str:
    operands = ",".join(f"q[{q}]" for q in gate.qubits)
    if gate.name in _ONE_QUBIT or gate.name in _TWO_QUBIT:
        return f"{gate.name} {operands};"
    if gate.name in _ROTATION:
        # Adding 0.0 folds -0.0 into 0.0: the one place signed zero is
        # canonicalized, so printing is a fixed point of parse-then-print.
        return f"{gate.name}({gate.params[0] + 0.0:.17g}) {operands};"
    if gate.name == "barrier":
        # An operand-free barrier is QASM's whole-register form.
        return f"barrier {operands};" if operands else "barrier q;"
    if gate.name == "measure":
        qubit = gate.qubits[0]
        return f"measure q[{qubit}] -> c[{qubit}];"
    raise ValueError(f"gate {gate.name!r} has no QASM form")


_QREG_RE = re.compile(r"^qreg\s+(\w+)\s*\[\s*(\d+)\s*\]\s*;$")
_GATE_RE = re.compile(
    r"^(?P<name>[a-z]+)(?:\s*\((?P<angle>.*)\))?\s+(?P<operands>[^;()\s][^;()]*);$"
)
_OPERAND_RE = re.compile(r"^\w+\s*\[\s*(\d+)\s*\]$")
_MEASURE_RE = re.compile(
    r"^measure\s+(\w+\s*\[\s*\d+\s*\])\s*->\s*\w+\s*\[\s*\d+\s*\]\s*;$"
)


def from_qasm(text: str) -> Circuit:
    """Parse the supported OpenQASM 2.0 subset back into a circuit.

    Raises :class:`QasmError` (with the 1-based line number and source
    line) on malformed input: missing/duplicate ``qreg``, a ``qreg``
    larger than :data:`MAX_QUBITS`, unknown gate mnemonics, wrong operand
    counts, repeated operands on two-qubit gates, out-of-range qubit
    indices, and missing, unparseable or non-finite rotation angles.
    """
    num_qubits: int | None = None
    gates: list[Gate] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("//")[0].strip()
        if not line or line.startswith(("OPENQASM", "include", "creg")):
            continue

        def fail(message: str) -> QasmError:
            return QasmError(message, line_number=line_number, line=raw_line)

        if line.startswith("qreg"):
            qreg = _QREG_RE.match(line)
            if not qreg:
                raise fail("malformed qreg declaration")
            if num_qubits is not None:
                raise fail("duplicate qreg declaration (one register supported)")
            num_qubits = _bounded_index(qreg.group(2), MAX_QUBITS + 1)
            if num_qubits is None:
                raise fail(
                    f"qreg size {qreg.group(2)} exceeds the supported maximum "
                    f"of {MAX_QUBITS} qubits"
                )
            continue
        if num_qubits is None:
            raise fail("statement before the qreg declaration")
        if line.startswith("measure"):
            measure = _MEASURE_RE.match(line)
            if not measure:
                raise fail("malformed measure (expected 'measure q[i] -> c[j];')")
            qubit = _parse_operand(measure.group(1), num_qubits, fail)
            gates.append(Gate("measure", (qubit,)))
            continue
        match = _GATE_RE.match(line)
        if not match:
            raise fail("unparseable statement (expected '<gate> <operands>;')")
        name = match.group("name")
        operand_text = [
            part.strip() for part in match.group("operands").split(",")
        ]
        if name == "barrier":
            if operand_text == ["q"]:
                gates.append(Gate("barrier", ()))
            else:
                qubits = tuple(
                    _parse_operand(part, num_qubits, fail) for part in operand_text
                )
                gates.append(Gate("barrier", qubits))
            continue
        if name not in _ARITY:
            raise fail(f"unsupported QASM gate {name!r}")
        operands = tuple(
            _parse_operand(part, num_qubits, fail) for part in operand_text
        )
        if len(operands) != _ARITY[name]:
            raise fail(
                f"gate {name!r} takes {_ARITY[name]} operand(s), "
                f"got {len(operands)}"
            )
        if len(operands) == 2 and operands[0] == operands[1]:
            raise fail(f"gate {name!r} repeats operand q[{operands[0]}]")
        if name in _ROTATION:
            angle = _parse_angle(match.group("angle"), fail)
            gates.append(Gate(name, operands, (angle,)))
        else:
            if match.group("angle") is not None:
                raise fail(f"gate {name!r} takes no parameter")
            gates.append(Gate(name, operands))
    if num_qubits is None:
        raise QasmError("missing qreg declaration")
    return Circuit(num_qubits, gates)


_Fail = Callable[[str], QasmError]


def _bounded_index(digits: str, bound: int) -> int | None:
    """``int(digits)`` when it is below ``bound``, else ``None``.

    Compares lengths first, so an arbitrarily long digit string is never
    converted.
    """
    if len(digits.lstrip("0")) > len(str(bound)):
        return None
    value = int(digits)
    return value if value < bound else None


def _parse_operand(text: str, num_qubits: int, fail: _Fail) -> int:
    match = _OPERAND_RE.match(text.strip())
    if not match:
        raise fail(f"malformed operand {text.strip()!r} (expected 'q[<index>]')")
    index = _bounded_index(match.group(1), num_qubits)
    if index is None:
        raise fail(
            f"qubit index {match.group(1)} out of range for qreg of size {num_qubits}"
        )
    return index


def _parse_angle(text: str | None, fail: _Fail) -> float:
    if text is None:
        raise fail("rotation gate missing its angle")
    source = text.strip()
    try:
        value = _AngleEvaluator(source).evaluate()
    except _AngleError as error:
        raise fail(f"cannot evaluate angle {source!r}: {error}") from None
    if not math.isfinite(value):
        raise fail(f"angle {source!r} is not finite")
    return value


class _AngleError(ValueError):
    """An angle expression outside the accepted grammar."""


_ANGLE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)|(?P<op>pi|[-+*/()])|(?P<bad>\S))"
)


class _AngleEvaluator:
    """Recursive-descent evaluator for rotation-angle expressions::

        expr   := term (("+" | "-") term)*
        term   := factor (("*" | "/") factor)*
        factor := ("+" | "-")* (NUMBER | "pi" | "(" expr ")")

    Arithmetic is IEEE float64, left to right.  With no exponent operator
    and nesting capped at :data:`_MAX_ANGLE_DEPTH`, evaluation time is
    linear in the text length.
    """

    def __init__(self, text: str) -> None:
        self.tokens: list[str] = []
        for match in _ANGLE_TOKEN_RE.finditer(text.rstrip()):
            if match.group("bad") is not None:
                raise _AngleError(f"unexpected character {match.group('bad')!r}")
            self.tokens.append(match.group("number") or match.group("op"))
        self.position = 0

    def evaluate(self) -> float:
        value = self._expr(0)
        if self.position < len(self.tokens):
            raise _AngleError(f"unexpected {self.tokens[self.position]!r}")
        return value

    def _peek(self) -> str | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _take(self) -> str:
        token = self._peek()
        if token is None:
            raise _AngleError("unexpected end of expression")
        self.position += 1
        return token

    def _expr(self, depth: int) -> float:
        value = self._term(depth)
        while self._peek() in ("+", "-"):
            if self._take() == "+":
                value = value + self._term(depth)
            else:
                value = value - self._term(depth)
        return value

    def _term(self, depth: int) -> float:
        value = self._factor(depth)
        while self._peek() in ("*", "/"):
            if self._take() == "*":
                value = value * self._factor(depth)
            else:
                divisor = self._factor(depth)
                if divisor == 0.0:
                    raise _AngleError("division by zero")
                value = value / divisor
        return value

    def _factor(self, depth: int) -> float:
        negate = False
        token = self._take()
        while token in ("+", "-"):
            negate ^= token == "-"
            token = self._take()
        if token == "(":
            if depth >= _MAX_ANGLE_DEPTH:
                raise _AngleError(f"nesting deeper than {_MAX_ANGLE_DEPTH}")
            value = self._expr(depth + 1)
            if self._take() != ")":
                raise _AngleError("unbalanced parentheses")
        elif token == "pi":
            value = math.pi
        elif token[0].isdigit() or token[0] == ".":
            value = float(token)
        else:
            raise _AngleError(f"unexpected {token!r}")
        return -value if negate else value
