package repro.core

/** Regular path query abstract syntax (paper §II-B).
  *
  * An RPQ is a regular expression over the label alphabet Σ. Concrete
  * syntax accepted by [[Rpq.parse]]:
  *
  * {{{
  *   alt    := cat ('|' cat)*
  *   cat    := post ('.' post)*
  *   post   := atom ('+' | '*')*
  *   atom   := label | 'ε' | '(' alt ')'
  *   label  := [A-Za-z0-9_]+ (but not the reserved 'ε')
  * }}}
  */
sealed trait Rpq {
  /** Rendering with the fewest parentheses; [[SharedCache]] keys on the
    * rendering of a canonical form of `R`.
    */
  def show: String = this match {
    case Rpq.Eps       => "ε"
    case Rpq.Lbl(l)    => l
    case Rpq.Cat(a, b) => s"${showChild(a)}.${showChild(b)}"
    case Rpq.Alt(a, b) => s"${a.show}|${b.show}"
    case Rpq.Plus(r)   => s"${showAtom(r)}+"
    case Rpq.Star(r)   => s"${showAtom(r)}*"
  }
  private def showChild(r: Rpq): String = r match {
    case Rpq.Alt(_, _) => s"(${r.show})"
    case _             => r.show
  }
  private def showAtom(r: Rpq): String = r match {
    case Rpq.Lbl(_) | Rpq.Eps => r.show
    case _                    => s"(${r.show})"
  }
  override def toString: String = show

  /** True iff a Kleene closure occurs anywhere in this expression. */
  def hasClosure: Boolean = this match {
    case Rpq.Plus(_) | Rpq.Star(_) => true
    case Rpq.Cat(a, b)             => a.hasClosure || b.hasClosure
    case Rpq.Alt(a, b)             => a.hasClosure || b.hasClosure
    case _                         => false
  }
}

object Rpq {
  /** The empty path label ε (matches the zero-length path). */
  case object Eps extends Rpq
  /** A single edge label. */
  final case class Lbl(l: String) extends Rpq
  /** Concatenation `a · b`. */
  final case class Cat(a: Rpq, b: Rpq) extends Rpq
  /** Alternation `a | b`. */
  final case class Alt(a: Rpq, b: Rpq) extends Rpq
  /** Kleene plus `r+` (one or more repetitions). */
  final case class Plus(r: Rpq) extends Rpq
  /** Kleene star `r*` (zero or more repetitions). */
  final case class Star(r: Rpq) extends Rpq

  /** Concatenation of a factor sequence; empty sequence is ε. */
  def cat(rs: Seq[Rpq]): Rpq = rs.reduceOption(Cat(_, _)).getOrElse(Eps)

  /** Alternation of clauses; the sequence must be non-empty. */
  def alt(rs: Seq[Rpq]): Rpq = rs.reduce(Alt(_, _))

  // ---------------------------------------------------------------- parser

  /** Parses the concrete syntax above; throws IllegalArgumentException on
    * malformed input.
    */
  def parse(input: String): Rpq = {
    val tokens = tokenize(input)
    val (r, rest) = parseAlt(tokens)
    require(rest.isEmpty, s"trailing tokens $rest in RPQ '$input'")
    r
  }

  private def tokenize(s: String): List[String] = {
    val out = scala.collection.mutable.ListBuffer.empty[String]
    var i = 0
    while (i < s.length) {
      val c = s(i)
      if (c.isWhitespace) i += 1
      else if ("()|.+*".contains(c)) { out += c.toString; i += 1 }
      else if (c == 'ε') { out += "ε"; i += 1 }
      else {
        val j0 = i
        while (i < s.length && (s(i).isLetterOrDigit || s(i) == '_')) i += 1
        require(i > j0, s"unexpected character '$c' at $i in RPQ '$s'")
        out += s.substring(j0, i)
      }
    }
    out.toList
  }

  private def parseAlt(ts: List[String]): (Rpq, List[String]) = {
    var (acc, rest) = parseCat(ts)
    while (rest.headOption.contains("|")) {
      val (next, r2) = parseCat(rest.tail)
      acc = Alt(acc, next); rest = r2
    }
    (acc, rest)
  }

  private def parseCat(ts: List[String]): (Rpq, List[String]) = {
    var (acc, rest) = parsePost(ts)
    while (rest.headOption.contains(".")) {
      val (next, r2) = parsePost(rest.tail)
      acc = Cat(acc, next); rest = r2
    }
    (acc, rest)
  }

  private def parsePost(ts: List[String]): (Rpq, List[String]) = {
    var (acc, rest) = parseAtom(ts)
    while (rest.headOption.exists(t => t == "+" || t == "*")) {
      acc = if (rest.head == "+") Plus(acc) else Star(acc)
      rest = rest.tail
    }
    (acc, rest)
  }

  private def parseAtom(ts: List[String]): (Rpq, List[String]) = ts match {
    case "(" :: rest =>
      val (r, r2) = parseAlt(rest)
      require(r2.headOption.contains(")"), s"missing ')' near $r2")
      (r, r2.tail)
    case "ε" :: rest => (Eps, rest)
    case tok :: rest if !"()|.+*".contains(tok) => (Lbl(tok), rest)
    case other => throw new IllegalArgumentException(s"cannot parse atom at $other")
  }

  // ------------------------------------------------- DNF and decomposition

  /** Converts an RPQ to disjunctive normal form treating each outermost
    * Kleene closure as a literal (Algorithm 1 line 2): top-level
    * alternations become clauses, and alternation distributes over
    * concatenation; closure bodies are left untouched.
    */
  def dnf(q: Rpq): Seq[Rpq] = q match {
    case Alt(a, b) => dnf(a) ++ dnf(b)
    case Cat(a, b) => for { x <- dnf(a); y <- dnf(b) } yield Cat(x, y)
    case other     => Seq(other)
  }

  /** Flattens a DNF clause into its concatenation factors. */
  def factors(clause: Rpq): Seq[Rpq] = clause match {
    case Cat(a, b) => factors(a) ++ factors(b)
    case Eps       => Seq.empty
    case other     => Seq(other)
  }

  /** A decomposed batch unit `Pre · R^Type · Post` (Algorithm 1 line 4,
    * `DecomposeCL`). `typ` is `Some('+')`, `Some('*')`, or `None` when the
    * clause has no outermost Kleene closure; `post` never contains a
    * closure ([[Rpq.Plus]]/[[Rpq.Star]] is the *rightmost* closure).
    */
  final case class BatchUnit(pre: Rpq, r: Rpq, typ: Option[Char], post: Rpq)

  /** Decomposes a DNF clause into its batch unit. */
  def decompose(clause: Rpq): BatchUnit = {
    val fs = factors(clause)
    val lastClosure = fs.lastIndexWhere {
      case Plus(_) | Star(_) => true
      case _                 => false
    }
    if (lastClosure < 0) BatchUnit(Eps, Eps, None, clause)
    else {
      val (typ, inner) = fs(lastClosure) match {
        case Plus(r) => ('+', r)
        case Star(r) => ('*', r)
        case other   => throw new IllegalStateException(s"not a closure: $other")
      }
      BatchUnit(cat(fs.take(lastClosure)), inner, Some(typ), cat(fs.drop(lastClosure + 1)))
    }
  }

  // ----------------------------------------- Brzozowski-derivative matcher

  /** True iff `r` matches the empty label sequence. */
  def nullable(r: Rpq): Boolean = r match {
    case Eps       => true
    case Lbl(_)    => false
    case Cat(a, b) => nullable(a) && nullable(b)
    case Alt(a, b) => nullable(a) || nullable(b)
    case Plus(x)   => nullable(x)
    case Star(_)   => true
  }

  /** The Brzozowski derivative of `r` with respect to label `a`; `None`
    * denotes the empty language ∅ (kept out of the AST on purpose).
    */
  def deriv(r: Rpq, a: String): Option[Rpq] = r match {
    case Eps    => None
    case Lbl(l) => if (l == a) Some(Eps) else None
    case Alt(x, y) =>
      (deriv(x, a), deriv(y, a)) match {
        case (Some(dx), Some(dy)) => Some(Alt(dx, dy))
        case (dx, dy)             => dx.orElse(dy)
      }
    case Cat(x, y) =>
      val viaX = deriv(x, a).map(dx => simplifyCat(dx, y))
      if (nullable(x)) (viaX, deriv(y, a)) match {
        case (Some(vx), Some(dy)) => Some(Alt(vx, dy))
        case (vx, dy)             => vx.orElse(dy)
      }
      else viaX
    case Plus(x) => deriv(x, a).map(dx => simplifyCat(dx, Star(x)))
    case Star(x) => deriv(x, a).map(dx => simplifyCat(dx, Star(x)))
  }

  private def simplifyCat(a: Rpq, b: Rpq): Rpq = (a, b) match {
    case (Eps, r) => r
    case (r, Eps) => r
    case _        => Cat(a, b)
  }

  /** Reference semantics: does `r` match the word `w` of labels? Used as a
    * specification oracle for the automaton and the dataflow evaluators.
    */
  def matches(r: Rpq, w: Seq[String]): Boolean =
    w.foldLeft(Option(r))((acc, a) => acc.flatMap(deriv(_, a))).exists(nullable)
}
