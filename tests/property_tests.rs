//! Property-based tests over the calculus core:
//!
//! * **Meaning preservation** — `eval(normalize(e)) == eval(e)` for
//!   randomly generated *well-typed* terms (the paper proves each Table-3
//!   rule correct; this is the mechanized counterpart).
//! * Normalization idempotence and canonicity.
//! * Monoid laws on random values (associativity, identity, and the
//!   declared C/I properties — Table 1's fine print).
//! * Substitution/free-variable algebra.
//! * `like` against a reference matcher.
//! * The total order on values.

use monoid_db::calculus::error::EvalError;
use monoid_db::calculus::eval::{like_match, Evaluator};
use monoid_db::calculus::expr::Expr;
use monoid_db::calculus::monoid::Monoid;
use monoid_db::calculus::normalize::{is_canonical, normalize};
use monoid_db::calculus::pretty::pretty;
use monoid_db::calculus::subst::{free_vars, subst};
use monoid_db::calculus::symbol::Symbol;
use monoid_db::calculus::typecheck::infer;
use monoid_db::calculus::value::{self, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// A generator of well-typed, pure, closed collection expressions over ints.
// ---------------------------------------------------------------------------

/// The collection kind of a generated expression (its type constructor).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    List,
    Bag,
    Set,
}

impl Kind {
    fn monoid(self) -> Monoid {
        match self {
            Kind::List => Monoid::List,
            Kind::Bag => Monoid::Bag,
            Kind::Set => Monoid::Set,
        }
    }

    /// Kinds legal as generator sources for an output monoid with these
    /// props (the C/I restriction, statically respected by construction).
    fn legal_sources(out: &Monoid) -> &'static [Kind] {
        let p = out.props();
        match (p.commutative, p.idempotent) {
            (true, true) => &[Kind::List, Kind::Bag, Kind::Set],
            (true, false) => &[Kind::List, Kind::Bag],
            _ => &[Kind::List],
        }
    }
}

fn int_literal() -> impl Strategy<Value = Expr> {
    (-5i64..6).prop_map(Expr::int)
}

/// A literal collection of the given kind.
fn leaf(kind: Kind) -> BoxedStrategy<Expr> {
    prop::collection::vec(int_literal(), 0..4)
        .prop_map(move |items| Expr::CollLit(kind.monoid(), items))
        .boxed()
}

/// Scalar head expression over a bound variable.
fn head_over(var: Symbol) -> BoxedStrategy<Expr> {
    prop_oneof![
        Just(Expr::Var(var)),
        (-3i64..4).prop_map(move |k| Expr::Var(var).add(Expr::int(k))),
        (1i64..4).prop_map(move |k| Expr::Var(var).mul(Expr::int(k))),
        (-3i64..4).prop_map(Expr::int),
        // A record projection — exercises rule N2 under normalization.
        (-3i64..4).prop_map(move |k| {
            Expr::record(vec![("a", Expr::Var(var)), ("b", Expr::int(k))]).proj("a")
        }),
        // A tuple projection.
        (-3i64..4).prop_map(move |k| {
            Expr::Tuple(vec![Expr::int(k), Expr::Var(var)]).tproj(1)
        }),
        // A conditional head.
        ((-3i64..4), (-3i64..4)).prop_map(move |(k, j)| {
            Expr::if_(Expr::Var(var).gt(Expr::int(k)), Expr::Var(var), Expr::int(j))
        }),
        // A beta redex — exercises rule N1.
        (-3i64..4).prop_map(move |k| {
            Expr::lambda("lam_p", Expr::var("lam_p").add(Expr::int(k)))
                .apply(Expr::Var(var))
        }),
        // A let — exercises rule N12.
        (1i64..4).prop_map(move |k| {
            Expr::let_("let_v", Expr::Var(var).mul(Expr::int(k)), {
                Expr::var("let_v").add(Expr::var("let_v"))
            })
        }),
    ]
    .boxed()
}

/// Predicate over a bound variable — possibly an exists-subquery to
/// exercise rule N6.
fn pred_over(var: Symbol, depth: u32) -> BoxedStrategy<Expr> {
    let simple = prop_oneof![
        (-3i64..4).prop_map(move |k| Expr::Var(var).le(Expr::int(k))),
        (-3i64..4).prop_map(move |k| Expr::Var(var).gt(Expr::int(k))),
        (-3i64..4).prop_map(move |k| Expr::Var(var).eq(Expr::int(k))),
        Just(Expr::bool(true)),
        ((-3i64..4), (-3i64..4)).prop_map(move |(a, b)| {
            Expr::Var(var).ge(Expr::int(a)).and(Expr::Var(var).le(Expr::int(b)))
        }),
    ];
    if depth == 0 {
        return simple.boxed();
    }
    let witness = Symbol::fresh("w");
    let exists = leaf(Kind::Bag).prop_map(move |src| {
        Expr::comp(
            Monoid::Some,
            Expr::Var(witness).eq(Expr::Var(var)),
            vec![Expr::gen(witness, src)],
        )
    });
    prop_oneof![3 => simple, 1 => exists].boxed()
}

/// A well-typed collection expression of the given kind.
fn coll(kind: Kind, depth: u32) -> BoxedStrategy<Expr> {
    if depth == 0 {
        return leaf(kind);
    }
    let m = kind.monoid();
    let sources = Kind::legal_sources(&m);

    // A comprehension with 1–2 generators and 0–1 predicates.
    let src_kind = prop::sample::select(sources.to_vec());
    let comp = (src_kind, prop::bool::ANY, prop::bool::ANY).prop_flat_map(
        move |(sk, two_gens, with_pred)| {
            let v1 = Symbol::fresh("v");
            let v2 = Symbol::fresh("v");
            let head_var = if two_gens { v2 } else { v1 };
            let g1 = coll(sk, depth - 1);
            let g2 = if two_gens {
                coll(sk, depth - 1).prop_map(Some).boxed()
            } else {
                Just(None).boxed()
            };
            let p = if with_pred {
                pred_over(head_var, depth - 1).prop_map(Some).boxed()
            } else {
                Just(None).boxed()
            };
            let m = m.clone();
            (g1, g2, p, head_over(head_var)).prop_map(move |(s1, s2, pred, head)| {
                let mut quals = vec![Expr::gen(v1, s1)];
                if let Some(s2) = s2 {
                    quals.push(Expr::gen(v2, s2));
                }
                if let Some(pred) = pred {
                    quals.push(Expr::pred(pred));
                }
                Expr::comp(m.clone(), head, quals)
            })
        },
    );

    // A merge of two sub-collections.
    let m2 = kind.monoid();
    let merge = (coll(kind, depth - 1), coll(kind, depth - 1))
        .prop_map(move |(a, b)| Expr::merge(m2.clone(), a, b));

    prop_oneof![2 => comp, 1 => merge, 1 => leaf(kind)].boxed()
}

/// A top-level term: a collection of any kind, or a primitive reduction
/// (sum / max / some) over a legal source.
fn term() -> BoxedStrategy<Expr> {
    let coll_term = prop::sample::select(vec![Kind::List, Kind::Bag, Kind::Set])
        .prop_flat_map(|k| coll(k, 2));
    let prim = prop::sample::select(vec![Monoid::Sum, Monoid::Max, Monoid::Some, Monoid::All])
        .prop_flat_map(|m| {
            let sk = prop::sample::select(Kind::legal_sources(&m).to_vec());
            sk.prop_flat_map(move |k| {
                let m = m.clone();
                let v = Symbol::fresh("t");
                let head = match m {
                    Monoid::Some | Monoid::All => {
                        Expr::Var(v).gt(Expr::int(0))
                    }
                    _ => Expr::Var(v),
                };
                coll(k, 2).prop_map(move |src| {
                    Expr::comp(m.clone(), head.clone(), vec![Expr::gen(v, src)])
                })
            })
        });
    prop_oneof![3 => coll_term, 1 => prim].boxed()
}

fn eval_budgeted(e: &Expr) -> Result<Value, EvalError> {
    Evaluator::with_budget(2_000_000).eval_expr(e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The central theorem: normalization preserves meaning on well-typed
    /// terms, its output is canonical, and it is idempotent.
    #[test]
    fn normalize_preserves_meaning(e in term()) {
        prop_assert!(infer(&e).is_ok(), "generated term must be well-typed: {}", pretty(&e));
        let direct = match eval_budgeted(&e) {
            Ok(v) => v,
            Err(EvalError::BudgetExhausted) => return Ok(()), // pathological size
            Err(other) => return Err(TestCaseError::fail(format!(
                "well-typed term failed to evaluate: {other} in {}", pretty(&e)
            ))),
        };
        let n = normalize(&e);
        let normalized = eval_budgeted(&n).map_err(|err| TestCaseError::fail(format!(
            "normalized term failed: {err} in {}", pretty(&n)
        )))?;
        prop_assert_eq!(
            &direct, &normalized,
            "meaning changed:\n  before: {}\n  after:  {}", pretty(&e), pretty(&n)
        );
        prop_assert!(is_canonical(&n), "not canonical: {}", pretty(&n));
        let n2 = normalize(&n);
        prop_assert_eq!(&n, &n2, "normalize not idempotent");
    }

    /// The calculus parser inverts the pretty-printer on the comprehension
    /// fragment: `parse(pretty(e)) = e`.
    #[test]
    fn parse_inverts_pretty(e in term()) {
        use monoid_db::calculus::parse::parse_expr;
        let printed = pretty(&e);
        let reparsed = parse_expr(&printed).map_err(|err| TestCaseError::fail(format!(
            "could not reparse `{printed}`: {err}"
        )))?;
        prop_assert_eq!(&e, &reparsed, "round trip changed `{}`", printed);
    }

    /// Well-typed terms evaluate without type errors (soundness of the
    /// static check w.r.t. the dynamic one).
    #[test]
    fn well_typed_terms_evaluate(e in term()) {
        prop_assert!(infer(&e).is_ok());
        match eval_budgeted(&e) {
            Ok(_) | Err(EvalError::BudgetExhausted) => {}
            Err(other) => prop_assert!(false, "eval failed: {other} in {}", pretty(&e)),
        }
    }
}

// ---------------------------------------------------------------------------
// Monoid laws on random values.
// ---------------------------------------------------------------------------

fn scalar_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-9i64..10).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[a-c]{0,3}".prop_map(|s| Value::str(&s)),
    ]
}

/// A value of the monoid's carrier built from units and merges.
fn carrier_value(m: Monoid) -> BoxedStrategy<Value> {
    match m {
        Monoid::Sum | Monoid::Prod => (-9i64..10).prop_map(Value::Int).boxed(),
        Monoid::Max | Monoid::Min => {
            prop_oneof![(-9i64..10).prop_map(Value::Int), Just(Value::Null)].boxed()
        }
        Monoid::Some | Monoid::All => any::<bool>().prop_map(Value::Bool).boxed(),
        Monoid::Str => "[a-c]{0,4}".prop_map(|s| Value::str(&s)).boxed(),
        _ => prop::collection::vec(scalar_value(), 0..5)
            .prop_map(move |items| {
                // Build via the monoid's own unit/merge so values are valid
                // carrier elements.
                let mut acc = value::zero(&m).expect("zero");
                for item in items {
                    let u = value::unit(&m, item).expect("unit");
                    acc = value::merge(&m, &acc, &u).expect("merge");
                }
                acc
            })
            .boxed(),
    }
}

/// Table 1's laws: associativity, identity, and the declared C/I
/// properties — on 512 random carrier triples *per monoid*, each triple
/// drawn from the case's own randomness.
#[test]
fn monoid_laws() {
    use proptest::test_runner::TestRunner;
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    for m in Monoid::all_basic() {
        let carrier = carrier_value(m.clone());
        let seen = RefCell::new(BTreeSet::new());
        TestRunner::new(ProptestConfig::with_cases(512))
            .run_named(
                "monoid_laws",
                &(carrier.clone(), carrier.clone(), carrier),
                |(a, b, c)| {
                    seen.borrow_mut().insert((a.clone(), b.clone(), c.clone()));
                    let z = value::zero(m).unwrap();
                    // identity
                    prop_assert_eq!(value::merge(m, &z, &a).unwrap(), a.clone());
                    prop_assert_eq!(value::merge(m, &a, &z).unwrap(), a.clone());
                    // associativity
                    let ab = value::merge(m, &a, &b).unwrap();
                    let bc = value::merge(m, &b, &c).unwrap();
                    prop_assert_eq!(
                        value::merge(m, &ab, &c).unwrap(),
                        value::merge(m, &a, &bc).unwrap()
                    );
                    // Identity and associativity hold for the opposite
                    // monoid too, so pin the orientation where Table 1
                    // defines it: list's ⊕ is `++`, left operand first.
                    if *m == Monoid::List {
                        let concat = [a.elements().unwrap(), b.elements().unwrap()].concat();
                        prop_assert_eq!(ab.elements().unwrap(), concat);
                    }
                    // declared properties
                    if m.props().commutative {
                        prop_assert_eq!(ab, value::merge(m, &b, &a).unwrap());
                    }
                    if m.props().idempotent {
                        prop_assert_eq!(value::merge(m, &a, &a).unwrap(), a.clone());
                    }
                    Ok(())
                },
            )
            .unwrap_or_else(|e| panic!("{m}: {e}"));
        // The cases really are different cases: a collection carrier has
        // far more than 512 values, so almost every triple is new.
        if m.is_collection() {
            let distinct = seen.borrow().len();
            assert!(distinct >= 100, "{m}: only {distinct} distinct triples in 512 cases");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The total order on values really is total and consistent.
    #[test]
    fn value_order_is_total(mut vals in prop::collection::vec(scalar_value(), 2..6)) {
        vals.sort();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // Equality is consistent with ordering.
        for a in &vals {
            for b in &vals {
                let eq = a == b;
                let cmp_eq = a.cmp(b) == std::cmp::Ordering::Equal;
                prop_assert_eq!(eq, cmp_eq);
            }
        }
    }

    /// set_from is order-insensitive and idempotent.
    #[test]
    fn set_from_is_canonical(items in prop::collection::vec(scalar_value(), 0..8)) {
        let a = Value::set_from(items.clone());
        let mut rev = items.clone();
        rev.reverse();
        let b = Value::set_from(rev);
        prop_assert_eq!(&a, &b);
        let again = Value::set_from(a.elements().unwrap());
        prop_assert_eq!(a, again);
    }
}

// ---------------------------------------------------------------------------
// Substitution algebra.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Substituting into a closed term is the identity; substituting a
    /// closed value removes the variable from the free set.
    #[test]
    fn subst_properties(e in term(), k in -5i64..6) {
        let x = Symbol::new("zz_unused");
        // Terms from `term()` are closed: substitution is identity.
        prop_assert_eq!(subst(&e, x, &Expr::int(k)), e.clone());
        prop_assert!(free_vars(&e).is_empty(), "{}", pretty(&e));
    }

    /// An open term built by wrapping: e + x, then substituting x, is
    /// closed and evaluates to the expected shifted result.
    #[test]
    fn subst_closes_open_terms(k in -5i64..6) {
        let x = Symbol::new("free_x");
        let open = Expr::Var(x).add(Expr::int(1));
        prop_assert!(free_vars(&open).contains(&x));
        let closed = subst(&open, x, &Expr::int(k));
        prop_assert!(free_vars(&closed).is_empty());
        let v = eval_budgeted(&closed).unwrap();
        prop_assert_eq!(v, Value::Int(k + 1));
    }
}

// ---------------------------------------------------------------------------
// like_match against a reference implementation.
// ---------------------------------------------------------------------------

/// Exponential-free reference matcher by dynamic programming, over the
/// full pattern language: `%`, `_`, and `\`-escapes. Returns `None` on a
/// dangling trailing escape (the evaluator reports an error there).
fn like_reference(s: &str, pat: &str) -> Option<bool> {
    // Tokenize: Some(c) = literal char, None = %, plus a separate _ marker.
    enum T {
        Lit(char),
        One,
        Many,
    }
    let mut toks = Vec::new();
    let mut chars = pat.chars();
    while let Some(c) = chars.next() {
        toks.push(match c {
            '\\' => T::Lit(chars.next()?),
            '%' => T::Many,
            '_' => T::One,
            other => T::Lit(other),
        });
    }
    let s: Vec<char> = s.chars().collect();
    let mut dp = vec![vec![false; toks.len() + 1]; s.len() + 1];
    dp[0][0] = true;
    for j in 1..=toks.len() {
        dp[0][j] = matches!(toks[j - 1], T::Many) && dp[0][j - 1];
    }
    for i in 1..=s.len() {
        for j in 1..=toks.len() {
            dp[i][j] = match toks[j - 1] {
                T::Many => dp[i - 1][j] || dp[i][j - 1],
                T::One => dp[i - 1][j - 1],
                T::Lit(c) => c == s[i - 1] && dp[i - 1][j - 1],
            };
        }
    }
    Some(dp[s.len()][toks.len()])
}

// ---------------------------------------------------------------------------
// Every reduction is a monoid homomorphism: a fold may be split at any
// point and the two partial results merged in order. Associativity alone
// makes that hold — ordered monoids (list, oset, str, sorted) included —
// which is the law any partitioned evaluation would rest on.
// ---------------------------------------------------------------------------

/// One comprehension per monoid over the travel store. Every source is an
/// extent (a list), so all output monoids are legal; `Prod` gets a
/// constant head to stay clear of overflow.
fn monoid_corpus() -> Vec<(&'static str, Expr)> {
    let rooms = |monoid: Monoid, head: Expr| {
        Expr::comp(
            monoid,
            head,
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::gen("r", Expr::var("h").proj("rooms")),
            ],
        )
    };
    let price = || Expr::var("r").proj("price");
    vec![
        ("list", rooms(Monoid::List, price())),
        ("bag", rooms(Monoid::Bag, price())),
        ("set", rooms(Monoid::Set, price())),
        ("oset", rooms(Monoid::OSet, price())),
        ("sorted", rooms(Monoid::Sorted, price())),
        ("sorted-bag", rooms(Monoid::SortedBag, price())),
        ("sum", rooms(Monoid::Sum, price())),
        ("prod", rooms(Monoid::Prod, Expr::int(1))),
        ("max", rooms(Monoid::Max, price())),
        ("min", rooms(Monoid::Min, price())),
        ("some", rooms(Monoid::Some, price().gt(Expr::int(1_000_000)))),
        ("all", rooms(Monoid::All, price().gt(Expr::int(-1)))),
        (
            "str",
            Expr::comp(
                Monoid::Str,
                Expr::var("h").proj("name"),
                vec![Expr::gen("h", Expr::var("Hotels"))],
            ),
        ),
    ]
}

fn basic_monoid() -> impl Strategy<Value = Monoid> {
    prop::sample::select(Monoid::all_basic().to_vec())
}

/// Values `unit` accepts for `m`: what a comprehension head may produce.
fn head_value(m: &Monoid) -> BoxedStrategy<Value> {
    match m {
        Monoid::Sum | Monoid::Prod | Monoid::Max | Monoid::Min => {
            (-9i64..10).prop_map(Value::Int).boxed()
        }
        Monoid::Some | Monoid::All => any::<bool>().prop_map(Value::Bool).boxed(),
        Monoid::Str => "[a-c]{0,3}".prop_map(|s| Value::str(&s)).boxed(),
        _ => scalar_value().boxed(),
    }
}

/// `unit(x₁) ⊕ … ⊕ unit(xₙ)` through the executors' accumulator.
fn fold(m: &Monoid, xs: &[Value]) -> Value {
    let mut acc = value::Accumulator::new(m).unwrap();
    for x in xs {
        acc.push_unit(x.clone()).unwrap();
    }
    acc.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Value level: `fold(xs) == merge(fold(xs[..k]), fold(xs[k..]))` for
    /// every monoid and every split point `k`.
    #[test]
    fn fold_splits_at_any_point(
        case in basic_monoid().prop_flat_map(|m| {
            let xs = prop::collection::vec(head_value(&m), 0..12);
            (Just(m), xs, any::<usize>())
        })
    ) {
        let (m, xs, k) = case;
        let k = k % (xs.len() + 1);
        let merged = value::merge(&m, &fold(&m, &xs[..k]), &fold(&m, &xs[k..])).unwrap();
        prop_assert_eq!(fold(&m, &xs), merged, "monoid = {}, k = {}", m, k);
    }
}

// ---------------------------------------------------------------------------
// The sorting monoids' float lane: an accumulator that keeps float heads
// unboxed until `finish` must end exactly where sorting the boxed heads
// does — same runs, same representatives, same bits.
// ---------------------------------------------------------------------------

/// One accumulator input: `push_unit` of a head, or `merge_value` of a
/// whole collection.
#[derive(Debug, Clone)]
enum Feed {
    Push(Value),
    Merge(Value),
}

/// Heads of one kind, where a wrong representative or a wrong float order
/// would show: `-0.0` and `0.0`, NaNs of both signs and two payloads, and
/// `1.0` in the float pool next to `1` in the int pool.
fn lane_heads(kind: u8) -> BoxedStrategy<Vec<Value>> {
    let head = match kind {
        0 => (-2i64..4).prop_map(Value::Int).boxed(),
        1 => prop::sample::select(vec![
            -0.0,
            0.0,
            1.0,
            2.5,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(f64::NAN.to_bits() | 1),
            f64::NEG_INFINITY,
        ])
        .prop_map(Value::Float)
        .boxed(),
        2 => "[ab]{0,2}".prop_map(|s| Value::str(&s)).boxed(),
        _ => (0i64..3).prop_map(|i| Value::record_from(vec![("k", Value::Int(i))])).boxed(),
    };
    prop::collection::vec(head, 0..24).boxed()
}

/// Segments of one kind each, so lanes live long enough to sort and the
/// kind switches mid-stream; now and then a whole list is merged instead.
fn lane_feeds() -> impl Strategy<Value = Vec<Feed>> {
    let segment = (0u8..4, 0u8..5).prop_flat_map(|(kind, merge)| {
        lane_heads(kind).prop_map(move |heads| match merge {
            0 => vec![Feed::Merge(Value::list(heads))],
            _ => heads.into_iter().map(Feed::Push).collect(),
        })
    });
    prop::collection::vec(segment, 1..5).prop_map(|segments| segments.concat())
}

/// The bytes a value encodes to: bit-exact for floats, where `Debug`
/// prints every NaN alike.
fn codec_bytes(v: &Value) -> Vec<u8> {
    let mut buf = bytes::BytesMut::new();
    monoid_db::store::codec::encode_value(v, &mut buf).unwrap();
    buf.to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// For bag, set, sorted and sortedbag: the accumulator equals
    /// `Value::bag_from` / `set_from` / a stable sort of every pushed and
    /// merged head, compared by `Debug` string (plain `==` takes `1` for
    /// `1.0`) and by codec bytes.
    #[test]
    fn the_float_lane_finishes_as_the_boxed_sort_does(
        feeds in lane_feeds(),
        m in prop::sample::select(vec![
            Monoid::Bag, Monoid::Set, Monoid::Sorted, Monoid::SortedBag,
        ]),
    ) {
        let mut acc = value::Accumulator::new(&m).unwrap();
        let mut heads = Vec::new();
        for feed in &feeds {
            match feed {
                Feed::Push(h) => {
                    acc.push_unit(h.clone()).unwrap();
                    heads.push(h.clone());
                }
                Feed::Merge(v) => {
                    acc.merge_value(v.clone()).unwrap();
                    heads.extend(v.elements().unwrap());
                }
            }
        }
        let got = acc.finish().unwrap();
        let want = match m {
            Monoid::Bag => Value::bag_from(heads),
            Monoid::Set => Value::set_from(heads),
            Monoid::Sorted => {
                heads.sort();
                heads.dedup();
                Value::list(heads)
            }
            _ => {
                heads.sort();
                Value::list(heads)
            }
        };
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "monoid = {}", m);
        prop_assert_eq!(codec_bytes(&got), codec_bytes(&want), "monoid = {}", m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Query level: each corpus query run over the two halves of `Hotels`
    /// split at `k`, merged in order, equals the query over the whole
    /// extent — byte-identical, whatever the monoid.
    #[test]
    fn queries_split_over_an_extent(seed in 0u64..4, k in any::<usize>()) {
        use monoid_db::algebra;
        use monoid_db::store::{travel, TravelScale};
        let mut db = travel::generate(TravelScale::tiny(), seed);
        let hotels = db.root(Symbol::new("Hotels")).unwrap().elements().unwrap();
        let k = k % (hotels.len() + 1);
        for (label, q) in monoid_corpus() {
            let plan = algebra::plan_comprehension(&q).unwrap();
            let mut run_over = |part: &[Value]| {
                db.set_root("Hotels", Value::list(part.to_vec()));
                algebra::execute(&plan, &db).unwrap()
            };
            let whole = run_over(&hotels);
            let (left, right) = (run_over(&hotels[..k]), run_over(&hotels[k..]));
            prop_assert_eq!(
                whole,
                value::merge(plan.monoid(), &left, &right).unwrap(),
                "monoid = {}, k = {}, seed = {}", label, k, seed
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn like_matches_reference(s in "[ab]{0,8}", pat in r"[ab%_\\]{0,6}") {
        match like_reference(&s, &pat) {
            Some(expected) => prop_assert_eq!(
                like_match(&s, &pat).unwrap(),
                expected,
                "s = {:?}, pattern = {:?}", s, pat
            ),
            None => prop_assert!(
                like_match(&s, &pat).is_err(),
                "dangling escape must error: pattern = {:?}", pat
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// The static effect classifier is sound against the runtime: effect-free
// queries leave the heap untouched across the monoid corpus.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A query the analyzer classifies allocation- and mutation-free must
    /// leave the heap's mutation counter exactly where it was.
    #[test]
    fn effect_free_queries_leave_heap_version_unchanged(seed in 0u64..4) {
        use monoid_db::algebra;
        use monoid_db::calculus::analysis::effects_of;
        use monoid_db::store::{travel, TravelScale};
        let db = travel::generate(TravelScale::tiny(), seed);
        for (label, q) in monoid_corpus() {
            let query = algebra::plan_comprehension(&q).unwrap();
            let eff = effects_of(query.head()).join(query.plan().effects());
            prop_assert!(
                !eff.allocates && !eff.mutates,
                "corpus query should classify effect-free: {}", label
            );
            let before = db.heap().version();
            algebra::execute(&query, &db).unwrap();
            prop_assert_eq!(
                before, db.heap().version(),
                "heap version moved under an effect-free query: {}", label
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The serving layer: prepared statements and the epoch-stamped plan cache
// (differential corpus lives in tests/prepared.rs; these are the random-
// input counterparts).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Binding `$beds`/`$limit` to arbitrary ints is byte-identical to the
    /// ad-hoc pipeline on the literal-substituted source, and re-binding
    /// never changes the prepared plan's shape.
    #[test]
    fn prepared_binding_agrees_with_literals(
        seed in 0u64..3,
        beds in -2i64..6,
        limit in 0i64..400,
    ) {
        use monoid_db::store::{travel, TravelScale};
        use monoid_db::{prepare_on, Params};
        let mut db = travel::generate(TravelScale::tiny(), seed);
        let prepared = prepare_on(
            &db,
            "select r.price from h in Hotels, r in h.rooms \
             where r.bed# >= $beds and r.price < $limit",
        ).unwrap();
        let shape = monoid_db::algebra::explain(prepared.query().unwrap());
        let literal = format!(
            "select r.price from h in Hotels, r in h.rooms \
             where r.bed# >= {beds} and r.price < {limit}"
        );
        let want = monoid_db::explain_analyze(&literal, &db).unwrap().value;
        let got = prepared
            .execute(
                &mut db,
                &Params::new()
                    .bind("beds", Value::Int(beds))
                    .bind("limit", Value::Int(limit)),
            )
            .unwrap();
        prop_assert_eq!(got, want, "beds = {}, limit = {}", beds, limit);
        prop_assert_eq!(
            shape,
            monoid_db::algebra::explain(prepared.query().unwrap()),
            "plan shape moved under re-binding"
        );
    }

    /// The cache invariant under random interleavings of lookups, root
    /// mutations, and inserts: a lookup at the epoch the entry was stamped
    /// with is a hit (same `Arc`); a lookup after *any* mutation is a
    /// re-prepare, never the stale plan.
    #[test]
    fn cache_never_serves_across_mutations(ops in prop::collection::vec(0u8..3, 1..12)) {
        use monoid_db::store::{travel, TravelScale};
        use monoid_db::PlanCache;
        use std::sync::Arc;
        let cache = PlanCache::new();
        let mut db = travel::generate(TravelScale::tiny(), 1);
        let src = "select c.name from c in Cities";
        let mut last: Option<(u64, Arc<monoid_db::Prepared>)> = None;
        for (i, op) in ops.iter().enumerate() {
            match op {
                0 => {
                    let epoch = db.mutation_epoch();
                    let p = cache.get_or_prepare_snapshot_traced(&db, src).unwrap().0;
                    if let Some((stamped, held)) = &last {
                        if *stamped == epoch {
                            prop_assert!(
                                Arc::ptr_eq(held, &p),
                                "lookup at the stamped epoch must hit (op {})", i
                            );
                        } else {
                            prop_assert!(
                                !Arc::ptr_eq(held, &p),
                                "stale entry served across a mutation (op {})", i
                            );
                        }
                    }
                    last = Some((epoch, p));
                }
                1 => db.set_root("Scratch", Value::Int(i as i64)),
                _ => {
                    db.insert(
                        Symbol::new("City"),
                        Value::record_from(vec![
                            ("name", Value::str("Nowhere")),
                            ("hotels", Value::list(vec![])),
                            ("hotel#", Value::Int(0)),
                        ]),
                    )
                    .unwrap();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Joins: the fused fold, the plan walk and the evaluator agree on random
// two-extent joins whose keys mix kinds.
// ---------------------------------------------------------------------------

/// A join key from a pool where kinds collide: small ints, their float
/// images (`1 = 1.0`), a float no int equals, strings, and null.
fn join_key() -> impl Strategy<Value = Value> {
    prop::sample::select(vec![
        Value::Int(0),
        Value::Int(1),
        Value::Int(2),
        Value::Float(1.0),
        Value::Float(2.0),
        Value::Float(0.5),
        Value::str("a"),
        Value::str("b"),
        Value::Null,
    ])
}

/// An extent of `⟨id, k, g⟩` records: `id` is the row's position, `k` a
/// [`join_key`], `g` a second, low-cardinality int key.
fn join_extent() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec((join_key(), 0i64..3), 0..7).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(id, (k, g))| {
                Value::record_from(vec![("id", Value::Int(id as i64)), ("k", k), ("g", Value::Int(g))])
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `⊕{ head | l ← L, r ← R, <0–2 equalities> }` over list or bag
    /// extents: one fused fold ≡ the plan walk ≡ direct evaluation.
    #[test]
    fn random_joins_agree_across_fused_walk_and_evaluator(
        left in join_extent(),
        right in join_extent(),
        bags in (any::<bool>(), any::<bool>()),
        arity in 0usize..3,
        monoid in prop::sample::select(vec![
            Monoid::List, Monoid::Bag, Monoid::Set, Monoid::OSet, Monoid::Sum,
            Monoid::Max, Monoid::Some, Monoid::All,
        ]),
    ) {
        use monoid_db::algebra::{self, Engine};
        use monoid_db::calculus::types::Schema;
        use monoid_db::store::Database;
        // Only a commutative monoid may range over a bag (§2.3).
        let extent = |rows: Vec<Value>, bag: bool| {
            if bag && monoid.props().commutative { Value::bag_from(rows) } else { Value::list(rows) }
        };
        let mut db = Database::new(Schema::new());
        db.set_root("L", extent(left, bags.0));
        db.set_root("R", extent(right, bags.1));

        let (l, r) = (|f: &str| Expr::var("l").proj(f), |f: &str| Expr::var("r").proj(f));
        let code = l("id").mul(Expr::int(10)).add(r("id"));
        let head = match monoid {
            Monoid::Sum | Monoid::Max => code,
            Monoid::Some => code.eq(Expr::int(21)),
            Monoid::All => code.ne(Expr::int(21)),
            _ => Expr::Tuple(vec![l("id"), r("id")]),
        };
        let mut quals = vec![Expr::gen("l", Expr::var("L")), Expr::gen("r", Expr::var("R"))];
        quals.extend(["k", "g"][..arity].iter().map(|f| Expr::pred(l(f).eq(r(f)))));
        let comp = Expr::comp(monoid.clone(), head, quals);

        let plan = algebra::plan_comprehension(&comp).unwrap();
        prop_assert_eq!(algebra::engine_of(&plan), Engine::Fused);
        let walk = algebra::execute_plan_walk_bound(&plan, &db, &[]).unwrap();
        prop_assert_eq!(&algebra::execute(&plan, &db).unwrap(), &walk, "fused ≠ plan walk: {}", pretty(&comp));
        prop_assert_eq!(&db.query(&comp).unwrap(), &walk, "evaluator ≠ plan walk: {}", pretty(&comp));
    }
}
