"""Minimal Tcl interpreter for Design-Compiler-style synthesis scripts.

Supports the script constructs our flows emit:

* one command per line (or ``;``-separated), ``#`` comments
* ``set var value`` and ``$var`` / ``${var}`` substitution
* ``[command ...]`` command substitution
* ``"..."`` quoting (with substitution) and ``{...}`` literal grouping
* line continuation with a trailing backslash

Commands dispatch to Python callables registered in a
:class:`TclInterpreter`; unknown commands raise :class:`TclError`, which is
how non-executable (hallucinated) scripts are detected.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["TclError", "TclInterpreter"]


class TclError(ValueError):
    """Raised on syntax errors or unknown commands.

    :meth:`TclInterpreter.eval_script` sets the 1-based ``line`` and
    ``col`` where the failing command starts in the script (also
    appended to the message); both are None when no position applies.
    """

    def __init__(
        self, message: str, line: int | None = None, col: int | None = None
    ) -> None:
        self.message = message
        self.line = line
        self.col = col
        super().__init__(message if line is None else f"{message} at {line}:{col}")

    def __reduce__(self):
        return type(self), (self.message, self.line, self.col)


CommandFunc = Callable[["TclInterpreter", list[str]], str]


class TclInterpreter:
    """Evaluate Tcl-subset scripts against a registry of commands."""

    def __init__(self) -> None:
        self.variables: dict[str, str] = {}
        self.commands: dict[str, CommandFunc] = {}
        self.register("set", _cmd_set)
        self.register("puts", _cmd_puts)
        self.register("expr", _cmd_expr)
        self.output: list[str] = []

    def register(self, name: str, func: CommandFunc) -> None:
        self.commands[name] = func

    # -- script evaluation ------------------------------------------------------

    def eval_script(self, script: str) -> list[tuple[str, str]]:
        """Run ``script``; returns a list of (command line, result) pairs.

        A :class:`TclError` escaping a command gets the position where
        that command starts.
        """
        results = []
        for command, line, col in self._commands(script):
            try:
                result = self.eval_line(command)
            except TclError as exc:
                if exc.line is not None:
                    raise
                located = type(exc)(exc.message, line, col)
                raise located.with_traceback(exc.__traceback__) from None
            results.append((command, result))
        return results

    def _commands(self, script: str) -> list[tuple[str, int, int]]:
        """``(command, line, col)`` for each command of ``script``.

        Backslash continuations join physical lines and ``;`` splits
        them; ``line``/``col`` locate each command's first character in
        the physical script.
        """
        commands: list[tuple[str, int, int]] = []
        pending = ""
        starts: list[tuple[int, int]] = []  # (offset in pending, line number)

        def locate(offset: int) -> tuple[int, int]:
            start, number = next(
                (start, number) for start, number in reversed(starts)
                if start <= offset
            )
            return number, offset - start + 1

        for number, raw in enumerate(script.splitlines(), 1):
            line = raw.rstrip()
            starts.append((len(pending), number))
            if line.endswith("\\"):
                pending += line[:-1] + " "
                continue
            pending += line
            offset = 0
            for part in self._split_semicolons(pending):
                command = part.strip()
                if command and not command.startswith("#"):
                    lead = len(part) - len(part.lstrip())
                    commands.append((command, *locate(offset + lead)))
                offset += len(part) + 1  # the part and its ";"
            pending = ""
            starts = []
        command = pending.strip()
        if command and not command.startswith("#"):
            lead = len(pending) - len(pending.lstrip())
            commands.append((command, *locate(lead)))
        return commands

    @staticmethod
    def _split_semicolons(line: str) -> list[str]:
        parts = []
        depth = 0
        current = ""
        in_quote = False
        for ch in line:
            if ch == '"' and depth == 0:
                in_quote = not in_quote
            elif ch in "[{":
                depth += 1
            elif ch in "]}":
                depth -= 1
            if ch == ";" and depth == 0 and not in_quote:
                parts.append(current)
                current = ""
            else:
                current += ch
        parts.append(current)
        return parts

    def eval_line(self, line: str) -> str:
        words = self._parse_words(line)
        if not words:
            return ""
        name, args = words[0], words[1:]
        if name not in self.commands:
            raise TclError(f"invalid command name {name!r}")
        return self.commands[name](self, args)

    # -- word parsing with substitution --------------------------------------------

    def _parse_words(self, line: str) -> list[str]:
        words: list[str] = []
        i = 0
        n = len(line)
        while i < n:
            while i < n and line[i] in " \t":
                i += 1
            if i >= n:
                break
            if line[i] == "{":
                word, i = self._read_braced(line, i)
                words.append(word)  # literal, no substitution
            elif line[i] == '"':
                word, i = self._read_quoted(line, i)
                words.append(self._substitute(word))
            else:
                j = i
                depth = 0
                while j < n and (depth > 0 or line[j] not in " \t"):
                    if line[j] == "[":
                        depth += 1
                    elif line[j] == "]":
                        depth -= 1
                    j += 1
                words.append(self._substitute(line[i:j]))
                i = j
        return words

    @staticmethod
    def _read_braced(line: str, start: int) -> tuple[str, int]:
        depth = 0
        for j in range(start, len(line)):
            if line[j] == "{":
                depth += 1
            elif line[j] == "}":
                depth -= 1
                if depth == 0:
                    return line[start + 1 : j], j + 1
        raise TclError("unmatched brace")

    @staticmethod
    def _read_quoted(line: str, start: int) -> tuple[str, int]:
        for j in range(start + 1, len(line)):
            if line[j] == '"' and line[j - 1] != "\\":
                return line[start + 1 : j], j + 1
        raise TclError("unmatched quote")

    def _substitute(self, text: str) -> str:
        result = ""
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == "$":
                if i + 1 < n and text[i + 1] == "{":
                    end = text.find("}", i + 2)
                    if end == -1:
                        raise TclError("unmatched ${")
                    name = text[i + 2 : end]
                    result += self._lookup(name)
                    i = end + 1
                else:
                    j = i + 1
                    while j < n and (text[j].isalnum() or text[j] == "_"):
                        j += 1
                    if j == i + 1:
                        result += ch
                        i += 1
                        continue
                    result += self._lookup(text[i + 1 : j])
                    i = j
            elif ch == "[":
                depth = 1
                j = i + 1
                while j < n and depth:
                    if text[j] == "[":
                        depth += 1
                    elif text[j] == "]":
                        depth -= 1
                    j += 1
                if depth:
                    raise TclError("unmatched bracket")
                result += self.eval_line(text[i + 1 : j - 1])
                i = j
            else:
                result += ch
                i += 1
        return result

    def _lookup(self, name: str) -> str:
        if name not in self.variables:
            raise TclError(f"can't read {name!r}: no such variable")
        return self.variables[name]


def _cmd_set(interp: TclInterpreter, args: list[str]) -> str:
    if len(args) == 1:
        return interp._lookup(args[0])
    if len(args) == 2:
        interp.variables[args[0]] = args[1]
        return args[1]
    raise TclError("usage: set var ?value?")


def _cmd_puts(interp: TclInterpreter, args: list[str]) -> str:
    text = args[-1] if args else ""
    interp.output.append(text)
    return ""


def _cmd_expr(interp: TclInterpreter, args: list[str]) -> str:
    expression = " ".join(args)
    allowed = set("0123456789.+-*/() <>=!&|")
    if not set(expression) <= allowed:
        raise TclError(f"expr: unsupported expression {expression!r}")
    try:
        value = eval(expression, {"__builtins__": {}}, {})  # noqa: S307
    except Exception as exc:  # pragma: no cover - defensive
        raise TclError(f"expr failed: {exc}") from exc
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
