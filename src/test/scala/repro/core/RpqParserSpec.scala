package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Rpq._

/** Parser, printer, DNF conversion, and batch-unit decomposition. */
class RpqParserSpec extends AnyFunSuite {

  // ---------------------------------------------------------------- parser

  private val parseCases: Seq[(String, Rpq)] = Seq(
    "a" -> Lbl("a"),
    "ab" -> Lbl("ab"),
    "a.b" -> Cat(Lbl("a"), Lbl("b")),
    "a . b" -> Cat(Lbl("a"), Lbl("b")),
    "a|b" -> Alt(Lbl("a"), Lbl("b")),
    "a+" -> Plus(Lbl("a")),
    "a*" -> Star(Lbl("a")),
    "ε" -> Eps,
    "(a)" -> Lbl("a"),
    "(a.b)+" -> Plus(Cat(Lbl("a"), Lbl("b"))),
    "a.(b.c)+.c" -> Cat(Cat(Lbl("a"), Plus(Cat(Lbl("b"), Lbl("c")))), Lbl("c")),
    "a.b.c" -> Cat(Cat(Lbl("a"), Lbl("b")), Lbl("c")),
    "a|b|c" -> Alt(Alt(Lbl("a"), Lbl("b")), Lbl("c")),
    "a.b|c" -> Alt(Cat(Lbl("a"), Lbl("b")), Lbl("c")),
    "a.(b|c)" -> Cat(Lbl("a"), Alt(Lbl("b"), Lbl("c"))),
    "a+*" -> Star(Plus(Lbl("a"))),
    "(a.b)*.b+.(a.b+.c)+" -> Cat(
      Cat(Star(Cat(Lbl("a"), Lbl("b"))), Plus(Lbl("b"))),
      Plus(Cat(Cat(Lbl("a"), Plus(Lbl("b"))), Lbl("c")))),
    "l10.l2" -> Cat(Lbl("l10"), Lbl("l2")),
  )
  for ((s, expected) <- parseCases)
    test(s"parse '$s'") { assert(parse(s) == expected) }

  for ((s, _) <- parseCases)
    test(s"parse/show roundtrip '$s'") {
      val r = parse(s)
      assert(parse(r.show) == r)
    }

  for (bad <- Seq("", "a.", "|a", "a|", "(a", "a)", "+", "*a", "a..b", "a b"))
    test(s"reject malformed '$bad'") {
      intercept[IllegalArgumentException](parse(bad))
    }

  // ------------------------------------------------------------------- DNF

  test("dnf of a single label is itself") {
    assert(dnf(parse("a")) == Seq(Lbl("a")))
  }
  test("dnf splits top-level alternation") {
    assert(dnf(parse("a|b.c")) == Seq(Lbl("a"), Cat(Lbl("b"), Lbl("c"))))
  }
  test("dnf distributes alternation over concatenation (left)") {
    assert(dnf(parse("(a|b).c")).toSet ==
      Set(Cat(Lbl("a"), Lbl("c")), Cat(Lbl("b"), Lbl("c"))))
  }
  test("dnf distributes alternation over concatenation (right)") {
    assert(dnf(parse("c.(a|b)")).toSet ==
      Set(Cat(Lbl("c"), Lbl("a")), Cat(Lbl("c"), Lbl("b"))))
  }
  test("dnf distributes on both sides") {
    assert(dnf(parse("(a|b).(c|d)")).size == 4)
  }
  test("dnf treats outermost closure as a literal") {
    assert(dnf(parse("(a|b)+")) == Seq(Plus(Alt(Lbl("a"), Lbl("b")))))
  }
  test("dnf keeps closure literal inside concatenation") {
    // The closure-free operand a|b stays whole: one batch unit, Pre = a|b.
    assert(dnf(parse("(a|b).(c|d)+")) ==
      Seq(Cat(Alt(Lbl("a"), Lbl("b")), Plus(Alt(Lbl("c"), Lbl("d"))))))
  }
  test("dnf distributes over an alternation that holds a closure") {
    assert(dnf(parse("(a|b+).c+")) ==
      Seq(Cat(Lbl("a"), Plus(Lbl("c"))), Cat(Plus(Lbl("b")), Plus(Lbl("c")))))
  }
  test("dnf drops duplicate clauses") {
    assert(dnf(parse("a+|a+")) == Seq(Plus(Lbl("a"))))
    assert(dnf(parse("(a+|a+).b+")) == Seq(Cat(Plus(Lbl("a")), Plus(Lbl("b")))))
    assert(dnf(parse("a|b|a")) == Seq(Lbl("a"), Lbl("b")))
  }
  test("dnf rejects a query past the clause bound") {
    val e = intercept[IllegalArgumentException](dnf(parse(Seq.fill(12)("(a+|b+)").mkString("."))))
    assert(e.getMessage.contains("4096") && e.getMessage.contains(s"$MaxClauses"), e.getMessage)
    assert(dnf(parse(Seq.fill(10)("(a+|b+)").mkString("."))).size == MaxClauses)
  }
  test("dnf counts clauses before building them") {
    // 2^64 clauses: building even a fraction would not finish.
    val e = intercept[IllegalArgumentException](dnf(parse(Seq.fill(64)("(a+|b+)").mkString("."))))
    assert(e.getMessage.contains("at least"), e.getMessage)
  }

  // The DNF that distributes every alternation, as for closure-free input.
  private def fullDnf(q: Rpq): Seq[Rpq] = q match {
    case Alt(a, b) => fullDnf(a) ++ fullDnf(b)
    case Cat(a, b) => for { x <- fullDnf(a); y <- fullDnf(b) } yield Cat(x, y)
    case other     => Seq(other)
  }
  test("dnf of closure-free input distributes every alternation") {
    val rnd = new scala.util.Random(7)
    val closureFree = Iterator.continually(repro.TestKit.randomRpq(Seq("a", "b", "c"), 4, rnd))
      .filterNot(_.hasClosure).take(200).toSeq
    assert(closureFree.exists(q => fullDnf(q).size > 2))
    for (q <- closureFree) assert(dnf(q) == fullDnf(q).distinct, s"for $q")
  }
  test("dnf of nested alternation flattens to all clauses") {
    assert(dnf(parse("a|(b|c)|d")).size == 4)
  }

  // ----------------------------------------------------------- decompose

  test("decompose clause with no closure") {
    val bu = decompose(parse("a.b"))
    assert(bu == BatchUnit(Eps, Eps, None, parse("a.b")))
  }
  test("decompose single closure: a.(a.b)+.b (Example 7)") {
    val bu = decompose(parse("a.(a.b)+.b"))
    assert(bu.pre == Lbl("a"))
    assert(bu.r == parse("a.b"))
    assert(bu.typ.contains('+'))
    assert(bu.post == Lbl("b"))
  }
  test("decompose picks the RIGHTMOST closure: (a.b)*.b+.(a.b+.c)+ (Example 7)") {
    val bu = decompose(parse("(a.b)*.b+.(a.b+.c)+"))
    assert(bu.pre == parse("(a.b)*.b+"))
    assert(bu.r == parse("a.b+.c"))
    assert(bu.typ.contains('+'))
    assert(bu.post == Eps)
  }
  test("decompose of recursive Pre step: (a.b)*.b+") {
    val bu = decompose(parse("(a.b)*.b+"))
    assert(bu.pre == parse("(a.b)*"))
    assert(bu.r == Lbl("b"))
    assert(bu.typ.contains('+'))
    assert(bu.post == Eps)
  }
  test("decompose keeps closure-free alternations whole: (a|b).c+.(a|b)") {
    val Seq(clause) = dnf(parse("(a|b).c+.(a|b)"))
    assert(decompose(clause) == BatchUnit(parse("a|b"), Lbl("c"), Some('+'), parse("a|b")))
  }
  test("decompose star closure") {
    val bu = decompose(parse("a.b*.c"))
    assert(bu == BatchUnit(Lbl("a"), Lbl("b"), Some('*'), Lbl("c")))
  }
  test("decompose bare closure has empty pre and post") {
    val bu = decompose(parse("(b.c)+"))
    assert(bu == BatchUnit(Eps, parse("b.c"), Some('+'), Eps))
  }
  test("decompose post never contains a closure") {
    for (q <- Seq("a+.b.c", "a.b+.c.d", "(x.y)+.z", "a+.b+.c"))
      assert(!decompose(parse(q)).post.hasClosure, s"for $q")
  }
  test("factors flattens nested concatenation") {
    assert(factors(parse("a.b.c.d")) == Seq(Lbl("a"), Lbl("b"), Lbl("c"), Lbl("d")))
  }
  test("cat of empty sequence is Eps") { assert(cat(Seq.empty) == Eps) }
  test("hasClosure detection") {
    assert(parse("a.(b.c)+").hasClosure)
    assert(parse("a*").hasClosure)
    assert(!parse("a.b|c").hasClosure)
    assert(!Eps.hasClosure)
  }

  // ------------------------------------------------ Brzozowski matcher

  private def m(q: String, w: String*): Boolean = matches(parse(q), w)

  test("matches: single label") {
    assert(m("a", "a")); assert(!m("a", "b")); assert(!m("a")); assert(!m("a", "a", "a"))
  }
  test("matches: concatenation") {
    assert(m("a.b", "a", "b")); assert(!m("a.b", "a")); assert(!m("a.b", "b", "a"))
  }
  test("matches: alternation") {
    assert(m("a|b", "a")); assert(m("a|b", "b")); assert(!m("a|b", "c"))
  }
  test("matches: Kleene plus requires at least one repetition") {
    assert(!m("a+")); assert(m("a+", "a")); assert(m("a+", "a", "a", "a"))
  }
  test("matches: Kleene star accepts empty") {
    assert(m("a*")); assert(m("a*", "a", "a"))
  }
  test("matches: epsilon") { assert(m("ε")); assert(!m("ε", "a")) }
  test("matches: d.(b.c)+.c accepts dbcc and dbcbcc (Example 1)") {
    assert(m("d.(b.c)+.c", "d", "b", "c", "c"))
    assert(m("d.(b.c)+.c", "d", "b", "c", "b", "c", "c"))
    assert(!m("d.(b.c)+.c", "d", "c"))
    assert(!m("d.(b.c)+.c", "d", "b", "c"))
  }
  test("matches: nested closure (a.b+.c)+") {
    assert(m("(a.b+.c)+", "a", "b", "c"))
    assert(m("(a.b+.c)+", "a", "b", "b", "c", "a", "b", "c"))
    assert(!m("(a.b+.c)+", "a", "c"))
  }
  test("nullable mirrors matches on the empty word") {
    for (q <- Seq("a", "a*", "a+", "a.b", "a*.b*", "a|ε", "(a.b)*", "(a+)*"))
      assert(nullable(parse(q)) == matches(parse(q), Seq.empty), s"for $q")
  }

  // DNF preserves the language: check via the matcher on random words.
  private val dnfLangCases = Seq(
    "(a|b).c", "a.(b|c).d", "(a|b).(c|d)", "(a|b)+.c", "a.(b|c)+",
    "(a.b|c)+", "a|b.c|d", "((a|b).c)+.d", "(a|b)*", "a.(b|c).(a|b)+",
    "(a|b).(c.d)+.(a|b)", "(a|b+).c+.(d|a)", "(a|ε).b+")
  for (q <- dnfLangCases)
    test(s"dnf preserves language of '$q'") {
      val r = parse(q)
      val clauses = dnf(r)
      val rnd = new scala.util.Random(q.hashCode)
      val alphabet = Seq("a", "b", "c", "d")
      for (_ <- 1 to 200) {
        val w = Seq.fill(rnd.nextInt(6))(alphabet(rnd.nextInt(4)))
        assert(matches(r, w) == clauses.exists(matches(_, w)), s"word $w")
      }
    }

  // Decomposition is lossless: Pre · R^t · Post matches the same words.
  for (q <- Seq("a.(a.b)+.b", "(a.b)*.b+.(a.b+.c)+", "a.b*.c", "(b.c)+", "x+.y"))
    test(s"decompose preserves language of '$q'") {
      val clause = parse(q)
      val bu = decompose(clause)
      val rebuilt = bu.typ match {
        case Some('+') => cat(Seq(bu.pre, Plus(bu.r), bu.post).filter(_ != Eps))
        case Some('*') => cat(Seq(bu.pre, Star(bu.r), bu.post).filter(_ != Eps))
        case _         => bu.post
        }
      val rnd = new scala.util.Random(q.hashCode)
      val alphabet = Seq("a", "b", "c", "x", "y")
      for (_ <- 1 to 200) {
        val w = Seq.fill(rnd.nextInt(7))(alphabet(rnd.nextInt(5)))
        assert(matches(clause, w) == matches(rebuilt, w), s"word $w")
      }
    }
}
