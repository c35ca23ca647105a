"""A small Tcl-subset interpreter for cluster configuration scripts.

The paper configures XDAQ from Tcl on the primary host.  We implement
the subset a control script needs, with faithful Tcl semantics for the
parts we cover:

* command lines split on whitespace/newlines/semicolons;
* ``{braces}`` group words verbatim (no substitution);
* ``"quotes"`` group with substitution;
* ``$var`` / ``${var}`` variable substitution;
* ``[command]`` command substitution;
* ``#`` comments at command position;
* built-ins: ``set``, ``unset``, ``puts``, ``expr``, ``if``/``elseif``/
  ``else``, ``while``, ``for``, ``foreach``, ``proc`` (with ``return``),
  ``break``/``continue``, ``incr``, ``list``, ``lindex``, ``llength``,
  ``lappend``, ``string``, ``eval``, ``catch``, ``error``;
* host applications (:mod:`repro.config.control`) register additional
  commands — ``connect``, ``module``, ``param``, ``enable`` ... — which
  is exactly the extension mechanism the paper relies on ("In
  principle, however, we can choose any configuration language, as
  long as we follow I2O message format").

Values are strings, as in Tcl; ``expr`` evaluates a small arithmetic /
comparison / boolean grammar over numbers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.i2o.errors import I2OError


class TclError(I2OError):
    """Script error (syntax, unknown command, bad arity...)."""


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: str) -> None:
        self.value = value


Command = Callable[["TclInterp", list[str]], str]


class TclInterp:
    """One interpreter instance: variables, procs, commands."""

    def __init__(self) -> None:
        self.globals: dict[str, str] = {}
        self._frames: list[dict[str, str]] = []
        self.commands: dict[str, Command] = {}
        self.output: list[str] = []  # captured puts lines
        self._register_builtins()

    # -- public API -----------------------------------------------------------
    def register(self, name: str, fn: Command) -> None:
        self.commands[name] = fn

    def run(self, script: str) -> str:
        """Execute a script; returns the result of the last command.

        The script is lexed once per distinct text (a loop body runs
        from the cache on every later iteration); only words that
        contain ``$``, ``[`` or ``\\`` are substituted at run time.  A
        syntax error stops the script at the malformed command, after
        the commands before it have run.
        """
        commands, error = _lex_script(script)
        result = ""
        substitute = self.substitute
        for words in commands:
            result = self._invoke(
                [text if literal else substitute(text)
                 for text, literal in words]
            )
        if error is not None:
            raise TclError(error)
        return result

    def eval_expr(self, text: str) -> str:
        if _needs_substitution(text):
            text = self.substitute(text)
        return _ExprParser(text).parse()

    # -- variable scope -----------------------------------------------------
    @property
    def _vars(self) -> dict[str, str]:
        return self._frames[-1] if self._frames else self.globals

    def get_var(self, name: str) -> str:
        scope = self._vars
        if name in scope:
            return scope[name]
        if self._frames and name in self.globals:
            return self.globals[name]
        raise TclError(f'can\'t read "{name}": no such variable')

    def set_var(self, name: str, value: str) -> str:
        self._vars[name] = value
        return value

    # -- parsing --------------------------------------------------------------
    @staticmethod
    def _read_braced(text: str, i: int) -> tuple[str, int]:
        if text[i] != "{":
            raise TclError("internal: expected brace")
        depth = 0
        start = i + 1
        n = len(text)
        while i < n:
            c = text[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    return text[start:i], i + 1
            elif c == "\\" and i + 1 < n:
                i += 1
            i += 1
        raise TclError("missing close-brace")

    @staticmethod
    def _read_quoted(text: str, i: int) -> tuple[str, int]:
        start = i + 1
        i += 1
        n = len(text)
        while i < n:
            if text[i] == "\\" and i + 1 < n:
                i += 2
                continue
            if text[i] == '"':
                return text[start:i], i + 1
            i += 1
        raise TclError("missing close-quote")

    def substitute(self, text: str) -> str:
        """Perform $var and [cmd] substitution on ``text``."""
        out: list[str] = []
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c == "\\" and i + 1 < n:
                escapes = {"n": "\n", "t": "\t", "\\": "\\", "$": "$", "[": "[",
                           "]": "]", '"': '"'}
                out.append(escapes.get(text[i + 1], text[i + 1]))
                i += 2
            elif c == "$":
                name, i = self._read_varname(text, i)
                out.append(self.get_var(name))
            elif c == "[":
                depth = 1
                j = i + 1
                while j < n and depth:
                    if text[j] == "[":
                        depth += 1
                    elif text[j] == "]":
                        depth -= 1
                    j += 1
                if depth:
                    raise TclError("missing close-bracket")
                out.append(self.run(text[i + 1 : j - 1]))
                i = j
            else:
                out.append(c)
                i += 1
        return "".join(out)

    def _read_varname(self, text: str, i: int) -> tuple[str, int]:
        i += 1  # skip $
        n = len(text)
        if i < n and text[i] == "{":
            j = text.find("}", i)
            if j < 0:
                raise TclError("missing close-brace in ${...}")
            return text[i + 1 : j], j + 1
        start = i
        while i < n and (text[i].isalnum() or text[i] in "_:"):
            i += 1
        if start == i:
            raise TclError("lone $ in substitution")
        return text[start:i], i

    # -- invocation ------------------------------------------------------------
    def _invoke(self, words: list[str]) -> str:
        name = words[0]
        cmd = self.commands.get(name)
        if cmd is None:
            raise TclError(f'invalid command name "{name}"')
        return cmd(self, words[1:])

    # -- built-ins ----------------------------------------------------------------
    def _register_builtins(self) -> None:
        b = self.commands
        b["set"] = _cmd_set
        b["unset"] = _cmd_unset
        b["puts"] = _cmd_puts
        b["expr"] = _cmd_expr
        b["if"] = _cmd_if
        b["while"] = _cmd_while
        b["for"] = _cmd_for
        b["foreach"] = _cmd_foreach
        b["proc"] = _cmd_proc
        b["return"] = _cmd_return
        b["break"] = _cmd_break
        b["continue"] = _cmd_continue
        b["incr"] = _cmd_incr
        b["list"] = _cmd_list
        b["lindex"] = _cmd_lindex
        b["llength"] = _cmd_llength
        b["lappend"] = _cmd_lappend
        b["string"] = _cmd_string
        b["eval"] = _cmd_eval
        b["catch"] = _cmd_catch
        b["error"] = _cmd_error


# --- script lexer (cached per script text) ------------------------------------

#: a lexed word: its text and whether it is literal (needs no substitution)
_Word = tuple[str, bool]


def _needs_substitution(text: str) -> bool:
    return "$" in text or "[" in text or "\\" in text


@lru_cache(maxsize=512)
def _lex_script(script: str) -> tuple[tuple[tuple[_Word, ...], ...], str | None]:
    """Split ``script`` into commands of words, without substituting.

    Returns the commands up to the first malformed one and that
    command's syntax error (``None`` if the whole script lexed), so
    :meth:`TclInterp.run` can run the good prefix before raising, as
    the interpreter does when it reads command by command.
    """
    commands: list[tuple[_Word, ...]] = []
    i, n = 0, len(script)
    try:
        while i < n:
            # Skip leading whitespace and command separators.
            while i < n and script[i] in " \t\r\n;":
                i += 1
            if i >= n:
                break
            if script[i] == "#":
                while i < n and script[i] != "\n":
                    i += 1
                continue
            words: list[_Word] = []
            while i < n and script[i] not in "\n;":
                while i < n and script[i] in " \t\r":
                    i += 1
                if i >= n or script[i] in "\n;":
                    break
                word, i = _lex_word(script, i)
                words.append(word)
            if words:
                commands.append(tuple(words))
    except TclError as exc:
        return tuple(commands), str(exc)
    return tuple(commands), None


def _lex_word(text: str, i: int) -> tuple[_Word, int]:
    if text[i] == "{":
        raw, i = TclInterp._read_braced(text, i)
        return (raw, True), i
    if text[i] == '"':
        raw, i = TclInterp._read_quoted(text, i)
        return (raw, not _needs_substitution(raw)), i
    start = i
    n = len(text)
    depth = 0
    while i < n:
        c = text[i]
        if c == "[":
            depth += 1
        elif c == "]" and depth > 0:
            depth -= 1
        elif depth == 0 and c in " \t\r\n;":
            break
        i += 1
    raw = text[start:i]
    return (raw, not _needs_substitution(raw)), i


# --- list helpers (Tcl lists are whitespace-separated with braces) -----------


def parse_list(text: str) -> list[str]:
    interp_free = []
    i, n = 0, len(text)
    while i < n:
        while i < n and text[i] in " \t\r\n":
            i += 1
        if i >= n:
            break
        if text[i] == "{":
            word, i = TclInterp._read_braced(text, i)
        else:
            start = i
            while i < n and text[i] not in " \t\r\n":
                i += 1
            word = text[start:i]
        interp_free.append(word)
    return interp_free


def format_list(items: list[str]) -> str:
    out = []
    for item in items:
        if item == "" or any(c in item for c in " \t\r\n{}"):
            out.append("{" + item + "}")
        else:
            out.append(item)
    return " ".join(out)


# --- built-in commands ---------------------------------------------------------


def _arity(args: list[str], low: int, high: int | None, usage: str) -> None:
    if len(args) < low or (high is not None and len(args) > high):
        raise TclError(f'wrong # args: should be "{usage}"')


def _cmd_set(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 1, 2, "set varName ?newValue?")
    if len(args) == 1:
        return interp.get_var(args[0])
    return interp.set_var(args[0], args[1])


def _cmd_unset(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 1, None, "unset varName ...")
    for name in args:
        interp._vars.pop(name, None)
    return ""


def _cmd_puts(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 1, 2, "puts ?-nonewline? string")
    text = args[-1]
    interp.output.append(text)
    return ""


def _cmd_expr(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 1, None, "expr arg ?arg ...?")
    return interp.eval_expr(" ".join(args))


def _truthy(interp: TclInterp, condition: str) -> bool:
    value = interp.eval_expr(condition)
    try:
        return float(value) != 0.0
    except ValueError:
        raise TclError(f'expected boolean value but got "{value}"') from None


def _cmd_if(interp: TclInterp, args: list[str]) -> str:
    # if cond body ?elseif cond body ...? ?else body?
    i = 0
    while i < len(args):
        if i == 0 or args[i] == "elseif":
            offset = 0 if i == 0 else 1
            if i + offset + 1 >= len(args):
                raise TclError("wrong # args in if")
            if _truthy(interp, args[i + offset]):
                return interp.run(args[i + offset + 1])
            i += offset + 2
        elif args[i] == "else":
            if i + 1 >= len(args):
                raise TclError("wrong # args in if/else")
            return interp.run(args[i + 1])
        else:
            raise TclError(f'expected "elseif" or "else" but got "{args[i]}"')
    return ""


_MAX_ITERATIONS = 1_000_000


def _cmd_while(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 2, 2, "while test command")
    result = ""
    for _ in range(_MAX_ITERATIONS):
        if not _truthy(interp, args[0]):
            return result
        try:
            result = interp.run(args[1])
        except _Break:
            return result
        except _Continue:
            continue
    raise TclError("while loop exceeded iteration limit")


def _cmd_for(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 4, 4, "for start test next command")
    interp.run(args[0])
    result = ""
    for _ in range(_MAX_ITERATIONS):
        if not _truthy(interp, args[1]):
            return result
        try:
            result = interp.run(args[3])
        except _Break:
            return result
        except _Continue:
            pass
        interp.run(args[2])
    raise TclError("for loop exceeded iteration limit")


def _cmd_foreach(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 3, 3, "foreach varName list command")
    result = ""
    for item in parse_list(args[1]):
        interp.set_var(args[0], item)
        try:
            result = interp.run(args[2])
        except _Break:
            break
        except _Continue:
            continue
    return result


def _cmd_proc(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 3, 3, "proc name args body")
    name, params_text, body = args
    params = parse_list(params_text)

    def call(inner: TclInterp, call_args: list[str]) -> str:
        frame: dict[str, str] = {}
        required = [p for p in params if p != "args"]
        if "args" in params:
            if len(call_args) < len(required):
                raise TclError(f'wrong # args: should be "{name} {params_text}"')
            for p, v in zip(required, call_args):
                frame[p] = v
            frame["args"] = format_list(call_args[len(required):])
        else:
            if len(call_args) != len(params):
                raise TclError(f'wrong # args: should be "{name} {params_text}"')
            frame.update(zip(params, call_args))
        inner._frames.append(frame)
        try:
            return inner.run(body)
        except _Return as ret:
            return ret.value
        finally:
            inner._frames.pop()

    interp.register(name, call)
    return ""


def _cmd_return(interp: TclInterp, args: list[str]) -> str:
    raise _Return(args[0] if args else "")


def _cmd_break(interp: TclInterp, args: list[str]) -> str:
    raise _Break()


def _cmd_continue(interp: TclInterp, args: list[str]) -> str:
    raise _Continue()


def _cmd_incr(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 1, 2, "incr varName ?increment?")
    step = int(args[1]) if len(args) == 2 else 1
    value = int(interp.get_var(args[0])) + step
    return interp.set_var(args[0], str(value))


def _cmd_list(interp: TclInterp, args: list[str]) -> str:
    return format_list(args)


def _cmd_lindex(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 2, 2, "lindex list index")
    items = parse_list(args[0])
    index = int(args[1])
    if not 0 <= index < len(items):
        return ""
    return items[index]


def _cmd_llength(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 1, 1, "llength list")
    return str(len(parse_list(args[0])))


def _cmd_lappend(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 1, None, "lappend varName ?value ...?")
    try:
        current = parse_list(interp.get_var(args[0]))
    except TclError:
        current = []
    current.extend(args[1:])
    return interp.set_var(args[0], format_list(current))


def _cmd_string(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 2, None, "string option arg ?arg ...?")
    option = args[0]
    if option == "length":
        return str(len(args[1]))
    if option == "toupper":
        return args[1].upper()
    if option == "tolower":
        return args[1].lower()
    if option == "equal":
        return "1" if args[1] == args[2] else "0"
    if option == "range":
        start, end = int(args[2]), int(args[3])
        return args[1][start : end + 1]
    raise TclError(f'unknown string option "{option}"')


def _cmd_eval(interp: TclInterp, args: list[str]) -> str:
    return interp.run(" ".join(args))


def _cmd_catch(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 1, 2, "catch command ?varName?")
    try:
        result = interp.run(args[0])
    except (_Break, _Continue, _Return):
        raise
    except I2OError as exc:
        if len(args) == 2:
            interp.set_var(args[1], str(exc))
        return "1"
    if len(args) == 2:
        interp.set_var(args[1], result)
    return "0"


def _cmd_error(interp: TclInterp, args: list[str]) -> str:
    _arity(args, 1, 1, "error message")
    raise TclError(args[0])


# --- expr: a recursive-descent parser over numbers/strings -------------------


@lru_cache(maxsize=512)
def _lex_expr(text: str) -> tuple[str, ...]:
    """Tokens of ``text``, cached per expression text: a loop's
    test lexes once, not once per iteration."""
    tokens: list[str] = []
    i, n = 0, len(text)
    two_char = {"&&", "||", "==", "!=", "<=", ">=", "**"}
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif text[i : i + 2] in two_char:
            tokens.append(text[i : i + 2])
            i += 2
        elif c in "+-*/%()<>!":
            tokens.append(c)
            i += 1
        elif c.isdigit() or c == ".":
            start = i
            while i < n and (text[i].isdigit() or text[i] in ".eE"
                             or (text[i] in "+-" and text[i - 1] in "eE")):
                i += 1
            tokens.append(text[start:i])
        elif c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise TclError("unterminated string in expr")
            tokens.append('"' + text[i + 1 : j])
            i = j + 1
        elif c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(text[start:i])
        else:
            raise TclError(f"unexpected character {c!r} in expr")
    return tuple(tokens)


class _ExprParser:
    """Grammar (precedence climbing): || && == != < <= > >= + - * / % unary."""

    def __init__(self, text: str) -> None:
        self.tokens = _lex_expr(text)
        self.pos = 0

    def parse(self) -> str:
        value = self._or()
        if self.pos != len(self.tokens):
            raise TclError(
                f"trailing tokens in expr: {list(self.tokens[self.pos:])}"
            )
        return self._format(value)

    @staticmethod
    def _format(value: object) -> str:
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _or(self) -> object:
        value = self._and()
        while self._peek() == "||":
            self._next()
            rhs = self._and()
            value = bool(self._num(value)) or bool(self._num(rhs))
        return value

    def _and(self) -> object:
        value = self._cmp()
        while self._peek() == "&&":
            self._next()
            rhs = self._cmp()
            value = bool(self._num(value)) and bool(self._num(rhs))
        return value

    def _cmp(self) -> object:
        value = self._add()
        ops = {"==", "!=", "<", "<=", ">", ">="}
        while self._peek() in ops:
            op = self._next()
            rhs = self._add()
            if isinstance(value, str) or isinstance(rhs, str):
                a, b = str(value), str(rhs)
            else:
                a, b = self._num(value), self._num(rhs)
            value = {
                "==": a == b, "!=": a != b, "<": a < b,
                "<=": a <= b, ">": a > b, ">=": a >= b,
            }[op]
        return value

    def _add(self) -> object:
        value = self._mul()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._num(self._mul())
            lhs = self._num(value)
            value = lhs + rhs if op == "+" else lhs - rhs
        return value

    def _mul(self) -> object:
        value = self._unary()
        while self._peek() in ("*", "/", "%", "**"):
            op = self._next()
            rhs = self._num(self._unary())
            lhs = self._num(value)
            if op == "*":
                value = lhs * rhs
            elif op == "**":
                value = lhs ** rhs
            elif op == "/":
                if rhs == 0:
                    raise TclError("divide by zero")
                # Tcl does integer division for integer operands.
                if isinstance(lhs, int) and isinstance(rhs, int):
                    value = lhs // rhs
                else:
                    value = lhs / rhs
            else:
                if rhs == 0:
                    raise TclError("divide by zero")
                value = lhs % rhs
        return value

    def _unary(self) -> object:
        token = self._peek()
        if token == "-":
            self._next()
            return -self._num(self._unary())
        if token == "+":
            self._next()
            return self._num(self._unary())
        if token == "!":
            self._next()
            return not bool(self._num(self._unary()))
        return self._atom()

    def _atom(self) -> object:
        token = self._peek()
        if token is None:
            raise TclError("unexpected end of expr")
        if token == "(":
            self._next()
            value = self._or()
            if self._peek() != ")":
                raise TclError("missing ) in expr")
            self._next()
            return value
        self._next()
        if token.startswith('"'):
            return token[1:]
        try:
            if any(c in token for c in ".eE") and not token.isalpha():
                return float(token)
            return int(token)
        except ValueError:
            return token  # bare word: compares as string

    @staticmethod
    def _num(value: object) -> int | float:
        if isinstance(value, bool):
            return 1 if value else 0
        if isinstance(value, (int, float)):
            return value
        try:
            text = str(value)
            return float(text) if any(c in text for c in ".eE") else int(text)
        except ValueError:
            raise TclError(f'expected number but got "{value}"') from None
