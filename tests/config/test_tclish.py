"""The Tcl-subset interpreter."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.tclish import (
    TclError,
    TclInterp,
    _lex_script,
    format_list,
    parse_list,
)


@pytest.fixture
def tcl():
    return TclInterp()


class TestVariables:
    def test_set_and_read(self, tcl):
        assert tcl.run("set x 42") == "42"
        assert tcl.run("set x") == "42"

    def test_dollar_substitution(self, tcl):
        tcl.run("set name world")
        tcl.run('puts "hello $name"')
        assert tcl.output == ["hello world"]

    def test_braced_varname(self, tcl):
        tcl.run("set long_name ok")
        assert tcl.run("set y ${long_name}!") == "ok!"

    def test_unset(self, tcl):
        tcl.run("set x 1")
        tcl.run("unset x")
        with pytest.raises(TclError, match="no such variable"):
            tcl.run("set y $x")

    def test_undefined_read_raises(self, tcl):
        with pytest.raises(TclError):
            tcl.run("puts $nope")


class TestQuotingAndSubstitution:
    def test_braces_suppress_substitution(self, tcl):
        tcl.run("set x 5")
        tcl.run("puts {$x literal}")
        assert tcl.output == ["$x literal"]

    def test_quotes_allow_substitution(self, tcl):
        tcl.run("set x 5")
        tcl.run('puts "$x interpolated"')
        assert tcl.output == ["5 interpolated"]

    def test_command_substitution(self, tcl):
        assert tcl.run("set y [expr 2 + 3]") == "5"

    def test_nested_command_substitution(self, tcl):
        assert tcl.run("set y [expr [expr 1 + 1] * 3]") == "6"

    def test_nested_braces(self, tcl):
        tcl.run("puts {a {b c} d}")
        assert tcl.output == ["a {b c} d"]

    def test_escapes(self, tcl):
        tcl.run(r'puts "tab\there"')
        assert tcl.output == ["tab\there"]

    def test_missing_close_brace(self, tcl):
        with pytest.raises(TclError, match="close-brace"):
            tcl.run("puts {unclosed")

    def test_missing_close_bracket(self, tcl):
        with pytest.raises(TclError, match="close-bracket"):
            tcl.run('set x "[expr 1"')

    def test_comments_and_semicolons(self, tcl):
        tcl.run("# full line comment\nset a 1; set b 2")
        assert tcl.run("set a") == "1"
        assert tcl.run("set b") == "2"


class TestExpr:
    @pytest.mark.parametrize("expression,expected", [
        ("1 + 2", "3"),
        ("10 - 2 * 3", "4"),
        ("(10 - 2) * 3", "24"),
        ("7 / 2", "3"),           # integer division like Tcl
        ("7.0 / 2", "3.5"),
        ("7 % 3", "1"),
        ("2 ** 10", "1024"),
        ("-5 + 3", "-2"),
        ("1 < 2", "1"),
        ("2 <= 1", "0"),
        ("3 == 3", "1"),
        ("3 != 3", "0"),
        ("1 && 0", "0"),
        ("1 || 0", "1"),
        ("!0", "1"),
        ("1 + 2 * 3 == 7 && 4 > 3", "1"),
    ])
    def test_arithmetic(self, tcl, expression, expected):
        assert tcl.run(f"expr {expression}") == expected

    def test_variables_inside_expr(self, tcl):
        tcl.run("set n 6")
        assert tcl.run("expr $n * 7") == "42"

    def test_string_comparison(self, tcl):
        assert tcl.run('expr "abc" == "abc"') == "1"
        assert tcl.run('expr "abc" == "abd"') == "0"

    def test_divide_by_zero(self, tcl):
        with pytest.raises(TclError, match="divide by zero"):
            tcl.run("expr 1 / 0")

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=60, deadline=None)
    def test_property_addition_agrees_with_python(self, a, b):
        assert TclInterp().run(f"expr {a} + {b}") == str(a + b)


class TestControlFlow:
    def test_if_else(self, tcl):
        tcl.run("if {1 > 0} {puts yes} else {puts no}")
        assert tcl.output == ["yes"]

    def test_if_elseif_chain(self, tcl):
        tcl.run("set x 2")
        tcl.run("if {$x == 1} {puts one} elseif {$x == 2} {puts two} "
                "else {puts many}")
        assert tcl.output == ["two"]

    def test_while_with_incr(self, tcl):
        tcl.run("set i 0\nwhile {$i < 4} {puts $i; incr i}")
        assert tcl.output == ["0", "1", "2", "3"]

    def test_for_loop(self, tcl):
        tcl.run("for {set i 0} {$i < 3} {incr i} {puts iter$i}")
        assert tcl.output == ["iter0", "iter1", "iter2"]

    def test_foreach(self, tcl):
        tcl.run("foreach fruit {apple pear plum} {puts $fruit}")
        assert tcl.output == ["apple", "pear", "plum"]

    def test_break_and_continue(self, tcl):
        tcl.run("foreach x {1 2 3 4 5} {"
                "if {$x == 2} {continue}; if {$x == 4} {break}; puts $x}")
        assert tcl.output == ["1", "3"]

    def test_infinite_loop_bounded(self, tcl):
        with pytest.raises(TclError, match="iteration limit"):
            tcl.run("while {1} {set x 1}")


class TestProcs:
    def test_define_and_call(self, tcl):
        tcl.run("proc double {x} {return [expr $x * 2]}")
        assert tcl.run("double 21") == "42"

    def test_local_scope(self, tcl):
        tcl.run("set x global")
        tcl.run("proc touch {} {set x local; return $x}")
        assert tcl.run("touch") == "local"
        assert tcl.run("set x") == "global"

    def test_global_readable_from_proc(self, tcl):
        tcl.run("set shared 7")
        tcl.run("proc peek {} {return $shared}")
        assert tcl.run("peek") == "7"

    def test_arity_checked(self, tcl):
        tcl.run("proc two {a b} {return $a$b}")
        with pytest.raises(TclError, match="wrong # args"):
            tcl.run("two onlyone")

    def test_varargs(self, tcl):
        tcl.run("proc count {first args} {return [llength $args]}")
        assert tcl.run("count a b c d") == "3"

    def test_recursion(self, tcl):
        tcl.run("proc fact {n} {if {$n <= 1} {return 1};"
                " return [expr $n * [fact [expr $n - 1]]]}")
        assert tcl.run("fact 6") == "720"


class TestListsAndStrings:
    def test_list_round_trip(self):
        items = ["plain", "with space", "", "{braced}"]
        assert parse_list(format_list(items)) == items

    def test_lindex_llength(self, tcl):
        tcl.run("set l [list a b c]")
        assert tcl.run("llength $l") == "3"
        assert tcl.run("lindex $l 1") == "b"
        assert tcl.run("lindex $l 99") == ""

    def test_lappend(self, tcl):
        tcl.run("lappend acc x")
        tcl.run("lappend acc y z")
        assert tcl.run("llength $acc") == "3"

    def test_string_ops(self, tcl):
        assert tcl.run("string length hello") == "5"
        assert tcl.run("string toupper abc") == "ABC"
        assert tcl.run("string equal a a") == "1"
        assert tcl.run("string range abcdef 1 3") == "bcd"

    @given(st.lists(st.text(
        alphabet=st.characters(blacklist_characters="{}\\",
                               blacklist_categories=("Cs",)), max_size=10)))
    @settings(max_examples=60, deadline=None)
    def test_property_list_round_trip(self, items):
        assert parse_list(format_list(items)) == items


class TestErrorsAndCatch:
    def test_unknown_command(self, tcl):
        with pytest.raises(TclError, match="invalid command"):
            tcl.run("frobnicate")

    def test_error_command(self, tcl):
        with pytest.raises(TclError, match="custom failure"):
            tcl.run("error {custom failure}")

    def test_catch_success(self, tcl):
        assert tcl.run("catch {expr 1 + 1} result") == "0"
        assert tcl.run("set result") == "2"

    def test_catch_failure(self, tcl):
        assert tcl.run("catch {error oops} msg") == "1"
        assert tcl.run("set msg") == "oops"

    def test_eval(self, tcl):
        tcl.run("set cmd {puts hi}")
        tcl.run("eval $cmd")
        assert tcl.output == ["hi"]

    def test_custom_command_registration(self, tcl):
        tcl.register("greet", lambda interp, args: f"hello {args[0]}")
        assert tcl.run("greet cluster") == "hello cluster"


class TestLexCache:
    def test_commands_before_a_malformed_one_still_run(self, tcl):
        for _ in range(2):  # the second run takes the cached lex
            tcl.output.clear()
            with pytest.raises(TclError, match="close-brace"):
                tcl.run("set a 1; puts first\nputs {unclosed")
            assert tcl.output == ["first"]
            assert tcl.run("set a") == "1"

    def test_malformed_quote_after_good_commands(self, tcl):
        with pytest.raises(TclError, match="close-quote"):
            tcl.run('puts one; puts "two')
        assert tcl.output == ["one"]

    def test_loop_body_lexed_once(self, tcl):
        _lex_script.cache_clear()
        tcl.run("set i 0; while {$i < 200} {incr i; set last $i}")
        assert tcl.run("set last") == "200"
        # the script, the body, and the final ``set last`` — not one
        # lex per iteration
        assert _lex_script.cache_info().misses <= 3

    def test_cached_script_substitutes_current_values(self, tcl):
        tcl.run("set v 1")
        tcl.run("puts $v")
        tcl.run("set v 2")
        tcl.run("puts $v")
        assert tcl.output == ["1", "2"]

    def test_literal_words_skip_substitution(self, tcl):
        calls = []
        original = tcl.substitute

        def counting(text):
            calls.append(text)
            return original(text)

        tcl.substitute = counting
        tcl.run("set x {$not_a_var}; set y plain; puts \"quoted\"")
        assert calls == []
        tcl.run("set z $x")
        assert calls == ["$x"]
        assert tcl.run("set z") == "$not_a_var"
