//! Fused batch execution: a canonical comprehension as one monomorphic fold.
//!
//! The paper's central performance claim (§1, §6) is that normalization
//! produces canonical forms whose operator chains — scan → filter → bind →
//! unnest → join → reduce — *are* a single monoid homomorphism. The plan
//! walk in [`crate::exec`] honors that shape but pays per-row machinery for
//! it: a `dyn FnMut` sink call per operator per row, an `Arc`-allocated
//! environment node per binding, and a full evaluator dispatch (with step
//! ticking) per expression node. None of that is needed: this module
//! compiles the plan into flat stage lists over a slot-addressed row
//! buffer, then drives the whole pipeline as one tight loop that borrows
//! rows from the extent's `Arc<Vec<Value>>` and accumulates directly into
//! the target monoid.
//!
//! The compile happens once, when the query is planned: the [`Query`]
//! constructor runs it and keeps the fold next to the plan, and every
//! execution reads it there. The fold owns what it needs — scan sources,
//! memo keys — and names no snapshot, epoch or table, so one compiled
//! query runs against any snapshot of any database.
//!
//! Every plan fuses: a `Scan` extended by `Filter`, `Bind`, `Unnest` and
//! `Join` stages (keyed joins, cross products, and keyed filters, which
//! compile to a join — below). Embedded expressions built from literals,
//! chain variables, parameters, records, tuples, projections,
//! arithmetic/comparison/logic, `if`, and `!` (deref) compile to
//! slot-addressed trees. A root (a name no chain variable binds) is a
//! *root cell* of the run: read from the root environment by the first
//! row that reads it and kept for the rest of the run, so an unbound root
//! fails where the walk's read of it fails, and an empty scan still
//! succeeds. Any other form (a lambda, a nested comprehension, `let`, a
//! collection literal, …) stays in the tree as an *evaluated* leaf, which
//! binds the chain variables it reads on top of the run's root
//! environment and runs the walk's own evaluator — the inner generator
//! simply runs inside the outer continuation, as the walk runs it.
//! A [`Query`] with heap effects (`new`, `:=`) cannot be built: the fold
//! shares one immutable heap across the run.
//!
//! Canonical forms make most per-row expressions one of two shapes, and
//! those compile to *kernels* rather than trees: an **operand** — a slot, a
//! constant, or one field of a slot, borrowed from the record or from an
//! object's heap state — and a **compare** `operand op operand` for
//! `= ≠ < ≤ > ≥`, decided by one `Value::cmp` and a truth table over the
//! `Ordering`. So `r.price ≥ $floor` is a
//! compare stage, and the head `r.price` (or a `for all` head's compare) is
//! borrowed and cloned once, into the accumulator; record heads have their
//! labels sorted at compile time. A kernel reads through the walk's own
//! free functions — a field is `eval::project_ref`, a compare
//! `binop_values`' `Value::cmp` — so a row that does not fit (the slot
//! holds no record, the field is missing, the OID dangles) fails with the
//! walk's error text. Equalities over a bare scan still become keyed
//! probes first.
//!
//! A join is a bind inside the same fold (`genBind g f = λk z. g (λacc a.
//! (f a) k acc) z`), and a hash join is that bind over a prebuilt finite
//! map. The left input continues the spine; the right sub-plan compiles
//! into a chain of its own (same slot numbering) that runs *before the
//! first left row* into a `Table`: the right-bound slot values laid out
//! flat (a bare scan over a list/set extent shares the extent's `Arc` and
//! copies nothing) plus an index: a build side whose one key is a string on
//! every row hashes into string buckets, and every other key (ints, OIDs,
//! floats, records, composite keys, a build side mixing kinds) goes to the
//! walk's own `Value`-ordered map. Equality is `Value::cmp`'s, so
//! `1` meets `1.0` on both sides exactly as in the walk's `BTreeMap`. Tables
//! are built in the walk's order — outer join first, a join's right source
//! before its left one, all build rows before the first key — so whichever
//! error the walk reports first is the one the fold reports. Probing
//! evaluates the left keys against the current row and, for each match *in
//! build order*, pushes borrowed `Frame`s for the right slots and drives
//! the rest of the chain: rows stay left-major, so ordered monoids, float
//! sums and `some`/`all` short-circuits land where the walk puts them.
//!
//! A table whose right sub-plan and right keys read no `$param` is a
//! function of the snapshot alone, so it is built once per epoch: `compile`
//! marks it, and the first execution against a snapshot keeps it in the
//! snapshot's [`Memo`](monoid_store::memo::Memo), keyed by that sub-plan and those keys (compared with
//! `==`). Every later execution against any clone of the snapshot probes the
//! same table; every mutation of the database starts a fresh memo, which is
//! the whole invalidation protocol. A table reading a `$param`, or one that
//! does not fit under [`monoid_store::memo::MEMO_BYTES`], is built per
//! execution and dies with it. Skipping a build cannot hide an error: a
//! table is only kept once the same pure build succeeded at this epoch.
//!
//! A keyed filter is the same bind with a constant probe. `Filter(k(x) =
//! e)` directly over `Scan x ← E`, where `E` and `k` read no `$param`, `k`
//! mentions only `x` and `e` does not mention `x`, compiles to a one-row
//! chain whose only stage is a `Join` against the bare scan keyed by `k` —
//! memoized like any param-free build side, so `exists h in Hotels: h.name
//! = $name` is one hash lookup per execution after the epoch's first.
//! Matches come back in build order, which is the extent's, so `some`
//! stops at the walk's witness and ordered monoids agree. Two rules keep
//! its errors the walk's, which reads `e` only on a row and `k` only on
//! the rows it reaches: the probe row exists only when the table has rows,
//! and the keyed chain keeps the plain filter it stands for — when the
//! build fails, the run scans the extent through that filter and the
//! chain's other stages, decided once per run, before any row reached a
//! sink, and at any depth (a keyed filter can be a join's build side).
//!
//! A bucket is a multiplicity. The reduction is a homomorphism out of the
//! free monoid, so folding `n` equal heads is the monoid's `n`-fold power
//! of one: `n·x` for `sum`, `x` itself for the idempotent `max`, `min`,
//! `some`, `all`, `set`, `sorted` and `oset`. When the head reads none of
//! the slots of the reduction chain's *trailing generator* — its last
//! stage when that is a join or an unnest, its scan when it has no stages
//! — the rows that generator produces differ in nothing the head sees, so
//! `compile` marks the chain and that generator hands the sink a count
//! instead of rows: a bucket's size (kept per table row by the same pass
//! that links the buckets), a collection's element count (a bag's run
//! counts summed), or the extent's. The sink evaluates the head once and
//! folds it `n` times through `Accumulator::push_units`, which equals `n`
//! pushes down to the error text: an `Int` sum multiplies exactly and
//! walks the pushes only when the product leaves the range, so the
//! overflow names the walk's partial sum; float sums and the collection
//! monoids that keep every copy push `n` times. No head is evaluated for
//! an empty bucket, as the walk evaluates none. So `join-wire`'s
//! `sum{ $w | m ← Managers, e ← CompanyEmployees, m.dept = e.dept }` is
//! one probe and one multiply per manager on the plain chain (and, over a
//! lane of `m.dept`, per dept — below), and `exists h in Hotels: h.name
//! = $name` one probe. Build chains never take the rule.
//!
//! A column is a memo entry. An attribute over an extent is the paper's
//! §4.1 vector `M[n]`, and a fold of its values is a homomorphism out of
//! that vector; a bag of them is an ℕ-valued map over its distinct values
//! (the module view of Henglein et al., *The Programming of Algebra*). So
//! `compile` gives a *lane chain* — a reduction chain over a root extent
//! that at most unnests one field of the scan variable, then only filters,
//! and whose filters and head read the chain's variables only as one
//! attribute `a` of the trailing generator — a second plan: the same
//! kernels reading `a`'s value from a slot of its own. The first run at
//! an epoch builds the *lane* in the snapshot's memo (charged its bytes):
//! the distinct values of `a` sorted into a dictionary, all of one scalar
//! kind so that `Value::cmp`-equal means identical, and each row's code in
//! the plain chain's order. A row off the shape (a dangling object, a path
//! that is no collection, a missing attribute, mixed kinds), a dictionary
//! of more than half the rows, or a lane the memo will not keep refuses
//! the lane; the refusal is kept for the epoch too, and the run drives the
//! plain chain — decided once per run, before any row. Over a lane the
//! filters run in order, into verdicts. `compile` classifies each: a
//! *range* compares `a` with an operand that reads no row (a literal, a
//! root, a `$param`), on either side. The dictionary holds one scalar
//! kind sorted by `Value::cmp`, so for a fixed operand `x` the ordering
//! `entry.cmp(x)` never decreases along it (Int↔Float by value, other
//! kinds by a constant shape rank): the entries less
//! than, equal to and greater than `x` are three blocks, found by two
//! bisections after one read of `x`, and the live entries in the blocks
//! the compare rejects are dropped — `≠` drops only the equal block. An
//! operand that cannot be read (an unbound root) fails every entry still
//! live, so an empty extent still succeeds. Any other filter, and the
//! head, run once per live entry. The rows then visit the verdicts in
//! order, so the first row whose verdict fails fails the run with the
//! walk's error, `some`/`all` stop at the walk's row, and other monoids
//! are pushed each kept row's head in the walk's order. A sorting monoid
//! (`bag`, `set`, `sorted`, `sortedbag`) over `a` itself is built from
//! the lane's runs — each dictionary entry with its row count, counted
//! when the lane was built — with no push and no sort. A bag is a finite
//! map from values to multiplicities, so a `bag` whose kept entries are
//! one block is a window of the lane's runs (`value::Runs`), sharing
//! their storage: `bulk-rows`' statement bisects and copies nothing. The
//! rows are visited only when an entry fails, to find the first row that
//! fails. When every filter is a range other than `≠`, each keeps one
//! block, and so does the chain: outside a profile, such a sorting fold
//! takes that block straight from the bisections, with no verdicts.
//!
//! A lane chain may end in a join: a counted one (the bucket rule above)
//! with one left key, the attribute `a` itself. A join's count is the
//! pointwise product of two multiplicity maps — `Σₖ n_L(k)·n_R(k)·x` —
//! and both are at hand: the lane counts the rows per value, the table
//! its bucket per key. So the run takes the join's table first, where the
//! plain chain's `Run::open` takes it (a failing build fails the run
//! first, even over an empty extent), then the lane; after the filters,
//! each live entry is probed once through `Table::find`, the probe the
//! plain chain makes (`1 = 1.0`, NaN payloads and the kind rules stay the
//! table's), and an entry whose bucket is empty is dropped before any
//! head runs. A head that reads no chain slot (`join-wire`'s `$w`) is
//! evaluated once and pushed `Σₑ rowsₑ·bucketₑ` times through
//! `push_units` — exact for every monoid, since every push the walk makes
//! is that value: an `Int` sum names the walk's partial sum, a float sum
//! adds the walk's sequence — unless an entry fails or the count
//! overflows, when the rows are visited in order and each kept row pushes
//! its entry's head `bucket`-fold, as any other head does. So `join-wire`'s
//! statement is four probes and one multiply, not a probe and a push per
//! manager.
//!
//! Equivalence is the load-bearing invariant: fused ≡ plan-walk
//! byte-identical, OID-for-OID. Two design rules enforce it. First, the
//! value-level semantics are *shared*, not duplicated — projections,
//! tuple projections, dereferences, binary and unary operators delegate
//! to the same [`monoid_calculus::eval`] free functions the evaluator
//! itself calls, and an evaluated leaf *is* the evaluator, so results and
//! error messages cannot drift. Second, both engines start from one
//! setup (`exec::root`), which refuses a run that leaves a `$param` of the
//! query unbound, so the fold's only globals — its `$param`s — always
//! resolve, and a root is read from the root environment where the walk
//! reads it.
//! Iteration order is the collection's canonical element order on both
//! engines, so ordered monoids (`list`, `str`, sorted variants) agree
//! without any re-sorting, and `some`/`all` short-circuit at the same
//! element.
//!
//! The fold is also what the profiler counts, so the engine that serves
//! a read is the one its profile describes. Every stage carries its plan
//! operator's pre-order index ([`Plan::walk`](crate::logical::Plan::walk)'s
//! `op`; a keyed filter's join stage takes the filter's, its build the
//! scan's), and `drive` is generic over a crate-private `Probe`. A
//! served read runs `NoProbe`, whose hooks are empty inline functions, so
//! its loop carries no counter; `trace`'s counting probe is told each
//! operator's rows out — a counted bucket or collection all `n` at once —
//! the table each join or keyed filter indexed, and its self time. A join
//! charges only its keys, index build and probes; its build side's
//! operators charge their own, so the self times compose.
//!
//! A lane chain profiles as its plain chain does: the lane tells the
//! probe each operator's rows — the members scanned, the rows unnested,
//! the rows each filter kept, the pairs a join made, up to the row where
//! `some`/`all` stopped — and charges each filter its evaluations (a
//! range, its bisection), a join its per-entry probes and its table's
//! build rows, the trailing generator its pass over the codes (or a
//! counted result's assembly from the lane's runs), and the scan the
//! lane's build.
//!
//! One judgement per submodule: `compile` decides what fuses and into
//! which stages and kernels, `drive` runs a row through them into a sink
//! and tells the probe what each operator did, `lane` builds a lane
//! chain's column and folds it, and `table` indexes a join's build side
//! and answers its probes.

mod compile;
mod drive;
mod lane;
mod table;

pub(crate) use compile::{compile, FusedQuery};
pub(crate) use drive::{serve, try_run_reduce, Probe};

use crate::logical::Query;

/// Which execution engine runs a query. Kept for the `benchmark/` crate,
/// which labels its per-layer counters with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The fused single-fold loop in this module.
    Fused,
    /// The push-based plan-tree interpreter in [`crate::exec`], which only
    /// [`crate::execute_plan_walk_bound`] runs.
    PlanWalk,
}

impl Engine {
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Fused => "fused",
            Engine::PlanWalk => "plan-walk",
        }
    }
}

/// The engine [`crate::exec::execute`] runs `query` on: the fold, which
/// every [`Query`] has and which never hands a run to the walk.
pub fn engine_of(_query: &Query) -> Engine {
    Engine::Fused
}

#[cfg(test)]
mod tests {
    use super::compile::{
        Compare, FusedExpr, Kernel, LaneFilter, LaneJoin, Operand, Source, Stage,
    };
    use super::drive::{Cx, NoProbe};
    use crate::error::PlanError;
    use super::table::{KeyIndex, Table, NONE};
    use super::*;
    use crate::logical::{plan_comprehension, Plan};
    use monoid_calculus::eval::Evaluator;
    use monoid_calculus::expr::Expr;
    use monoid_calculus::symbol::Symbol;
    use monoid_calculus::heap::Heap;
    use monoid_calculus::monoid::Monoid;
    use monoid_calculus::value::{Env, Value};
    use std::sync::Arc;

    /// The fold `q` was planned with.
    fn fold(q: &Query) -> &FusedQuery {
        q.fused()
    }

    /// `q` planned again with `head`.
    fn with_head(q: &Query, head: Expr) -> Query {
        Query::new(q.plan().clone(), q.monoid().clone(), head).unwrap()
    }

    /// `q` planned again over `plan`.
    fn with_plan(q: &Query, plan: Plan) -> Query {
        Query::new(plan, q.monoid().clone(), q.head().clone()).unwrap()
    }

    fn scan_chain() -> Query {
        plan_comprehension(&Expr::comp(
            Monoid::Sum,
            Expr::var("r").proj("bed#"),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::gen("r", Expr::var("h").proj("rooms")),
                Expr::pred(Expr::var("r").proj("bed#").ge(Expr::int(1))),
            ],
        ))
        .unwrap()
    }

    /// `bulk-rows`' statement, `bag{ r.price | h ← Hotels, r ← h.rooms,
    /// r.price ≥ $floor }`, with `head` and the filter `pred`.
    fn rooms_over(monoid: Monoid, head: Expr, pred: Expr) -> Query {
        let mut plan = scan_chain().plan().clone();
        let Plan::Filter { pred: p, .. } = &mut plan else { panic!("{plan:?}") };
        *p = pred;
        Query::new(plan, monoid, head).unwrap()
    }

    #[test]
    fn one_attribute_of_the_trailing_generator_over_a_root_is_a_lane_chain() {
        let (h, r) = (|| Expr::var("h"), || Expr::var("r"));
        let floor = || r().proj("price").ge(Expr::param("$floor"));
        // `bulk-rows`: the bag over the attribute itself is counted; `h`
        // is slot 0, `r` 1, `$floor` 2 and the lane's value slot 3.
        let q = rooms_over(Monoid::Bag, r().proj("price"), floor());
        let lane = fold(&q).lane.as_ref().expect("a lane chain");
        assert_eq!((lane.scan, lane.unnest, lane.value, lane.counts), (2, Some(1), 3, true));
        assert_eq!(lane.key.path, Some(Symbol::new("rooms")));
        assert_eq!(lane.key.attr, Symbol::new("price"));
        // `r.price ≥ $floor` is a range over the dictionary; so is the
        // same compare written the other way round.
        let range = LaneFilter::Range { operand: Operand::Slot(2), holds: [false, true, true] };
        assert_eq!(lane.filters, [(0, range)], "{lane:?}");
        let flipped = Expr::param("$floor").le(r().proj("price"));
        let q = rooms_over(Monoid::Bag, r().proj("price"), flipped);
        let [(0, LaneFilter::Range { holds, .. })] = fold(&q).lane.as_ref().unwrap().filters[..]
        else {
            panic!("{q:?}")
        };
        assert_eq!(holds, [false, true, true]);
        // Another monoid, or a head computed from the attribute, pushes
        // heads; a constant head and a root compare take the lane too.
        for (monoid, head) in [
            (Monoid::List, r().proj("price")),
            (Monoid::Bag, r().proj("price").add(Expr::int(1))),
            (Monoid::Sum, Expr::int(1)),
        ] {
            let q = rooms_over(monoid, head.clone(), r().proj("price").ge(Expr::var("Floor")));
            assert!(fold(&q).lane.as_ref().is_some_and(|l| !l.counts), "{head:?}");
        }
        // Depth 0: an attribute of the scanned members.
        let hotels = Plan::Scan { var: "h".into(), source: Expr::var("Hotels") };
        let stars = || h().proj("stars");
        let pred = stars().ge(Expr::int(3));
        let filtered = Plan::Filter { input: Box::new(hotels), pred };
        let q = Query::new(filtered, Monoid::Set, stars()).unwrap();
        let lane = fold(&q).lane.as_ref().expect("a depth-0 lane chain");
        assert_eq!((lane.key.path, lane.unnest, lane.counts), (None, None, true));
        // `join-wire`: a counted join keyed by the attribute ends the
        // chain, and its head, which reads no chain slot, is pushed once.
        let join = with_head(&keyed_join(), Expr::param("$w"));
        let lane = fold(&join).lane.as_ref().expect("a lane join");
        assert_eq!(lane.join, Some(LaneJoin { op: 0, table: 0 }));
        assert_eq!((lane.key.attr, lane.once, lane.counts), (Symbol::new("name"), true, false));
        // A head or a filter reading the key attribute keeps the lane, a
        // `bag` of it pushes heads, and a head reading it is per entry.
        let a_name = || Expr::var("a").proj("name");
        let q = Query::new(keyed_join().plan().clone(), Monoid::Bag, a_name()).unwrap();
        let lane = fold(&q).lane.as_ref().expect("a lane join reading the key");
        assert!(lane.join.is_some() && !lane.once && !lane.counts);
        let ranged = replanned_join(&q, |left| {
            let pred = a_name().ge(Expr::str("m"));
            *left = Plan::Filter { input: Box::new(left.clone()), pred };
        });
        let lane = fold(&ranged).lane.as_ref().expect("a range before the join");
        assert!(matches!(lane.filters[..], [(_, LaneFilter::Range { .. })]) && lane.join.is_some());
    }

    /// `q` planned again with its join's left input as `edit` leaves it.
    fn replanned_join(q: &Query, edit: impl FnOnce(&mut Plan)) -> Query {
        let mut plan = q.plan().clone();
        let Plan::Join { left, .. } = &mut plan else { panic!("{plan:?}") };
        edit(left);
        with_plan(q, plan)
    }

    #[test]
    fn what_takes_no_lane() {
        let (h, r) = (|| Expr::var("h"), || Expr::var("r"));
        let no_lane = |q: &Query| fold(q).lane.is_none();
        // `point-wire`'s and `mixed-rw`'s statement stays a keyed probe.
        let hotels = || Plan::Scan { var: "h".into(), source: Expr::var("Hotels") };
        let pred = h().proj("name").eq(Expr::param("$name"));
        let point = Plan::Filter { input: Box::new(hotels()), pred };
        let point = Query::new(point, Monoid::Some, Expr::bool(true)).unwrap();
        assert!(matches!(fold(&point).chain.source, Source::Probe { .. }) && no_lane(&point));
        // A join whose head reads its right side is not counted; a join
        // keyed by another attribute than the filters read, or by two, or
        // followed by a filter, ends no lane chain.
        let join = keyed_join();
        let (a, b) = (|| Expr::var("a"), || Expr::var("b"));
        assert!(no_lane(&with_head(&join, b().proj("name"))));
        let stars = a().proj("stars").ge(Expr::int(1));
        let filtered = replanned_join(&join, |left| {
            *left = Plan::Filter { input: Box::new(left.clone()), pred: stars.clone() };
        });
        assert!(matches!(fold(&filtered).chain.stages.as_slice(), [_, Stage::Join { .. }]));
        assert!(no_lane(&filtered));
        let mut two_keys = join.plan().clone();
        let Plan::Join { on, .. } = &mut two_keys else { panic!() };
        on.push((a().proj("name"), b().proj("country")));
        assert!(no_lane(&with_plan(&join, two_keys)));
        let after = Plan::Filter { input: Box::new(join.plan().clone()), pred: stars };
        assert!(no_lane(&with_plan(&join, after)));
        // A lane-shaped build side under a head that reads it: the
        // reduction chain is an uncounted join.
        let rooms = Plan::Unnest {
            input: Box::new(hotels()),
            var: "r".into(),
            path: h().proj("rooms"),
        };
        let build = Plan::Join {
            left: Box::new(Plan::Scan { var: "c".into(), source: Expr::var("Cities") }),
            right: Box::new(rooms),
            on: vec![(Expr::var("c").proj("name"), r().proj("price"))],
        };
        assert!(no_lane(&Query::new(build, Monoid::Sum, r().proj("bed#")).unwrap()));
        // The chain reads the scan variable, a whole row, or two
        // attributes; the source reads a `$param`.
        let floor = || r().proj("price").ge(Expr::param("$floor"));
        for (head, pred) in [
            (h().proj("name"), floor()),
            (r(), floor()),
            (r().proj("bed#"), floor()),
            (r().proj("price"), floor().and(r().proj("bed#").ge(Expr::int(1)))),
            (Expr::int(1), h().proj("stars").ge(Expr::int(1))),
        ] {
            let q = rooms_over(Monoid::Bag, head.clone(), pred.clone());
            assert!(no_lane(&q), "{head:?} / {pred:?}");
        }
        let param_source = Plan::Scan { var: "h".into(), source: Expr::param("$hotels") };
        let pred = h().proj("stars").ge(Expr::int(3));
        let q = Plan::Filter { input: Box::new(param_source), pred };
        assert!(no_lane(&Query::new(q, Monoid::Bag, h().proj("stars")).unwrap()));
    }

    #[test]
    fn linear_chains_fuse() {
        let q = scan_chain();
        assert_eq!(engine_of(&q).as_str(), "fused");
    }

    #[test]
    fn path_compares_and_path_heads_compile_to_kernels() {
        // `bag{ r.price | h ← Hotels, r ← h.rooms, r.price ≥ $floor }`:
        // `h` is slot 0, `r` slot 1, `$floor` the global slot 2.
        let r = || Expr::var("r");
        let mut plan = scan_chain().plan().clone();
        let Plan::Filter { pred, .. } = &mut plan else { panic!("{plan:?}") };
        *pred = r().proj("price").ge(Expr::param("$floor"));
        let q = Query::new(plan, Monoid::Bag, r().proj("price")).unwrap();
        let fq = fold(&q);
        let [Stage::Unnest { path, .. }, Stage::Filter { pred: filter, .. }] = fq.chain.stages.as_slice()
        else {
            panic!("{:?}", fq.chain.stages);
        };
        assert!(matches!(path, Kernel::Operand(Operand::Field(0, _))), "{path:?}");
        assert!(
            matches!(
                filter,
                Kernel::Compare(Compare {
                    lhs: Operand::Field(1, _),
                    rhs: Operand::Slot(2),
                    holds: [false, true, true],
                })
            ),
            "{filter:?}"
        );
        assert!(matches!(fq.head, Kernel::Operand(Operand::Field(1, _))));
        // Anything else stays a tree: arithmetic, logic, a compare
        // over a computed operand, a projection out of a projection.
        for head in [
            r().proj("price").add(Expr::int(1)),
            r().proj("price").ge(Expr::int(1)).and(Expr::bool(true)),
            r().proj("price").add(Expr::int(1)).lt(Expr::int(3)),
            r().proj("price").proj("cents"),
        ] {
            let q = with_head(&q, head.clone());
            assert!(matches!(fold(&q).head, Kernel::Tree(_)), "{head:?}");
        }
    }

    #[test]
    fn record_heads_sort_their_labels_once() {
        let r = || Expr::var("r");
        let head = Expr::record(vec![("mgr", r().proj("a")), ("emp", r()), ("dept", Expr::int(1))]);
        let q = with_head(&scan_chain(), head);
        let Kernel::Tree(FusedExpr::Record { labels, fields }) = &fold(&q).head else {
            panic!("a record head");
        };
        let labels: Vec<_> = labels.iter().map(Symbol::as_str).collect();
        assert_eq!(labels, ["dept", "emp", "mgr"]);
        // Source order, each field with its sorted position.
        assert_eq!(fields.iter().map(|(at, _)| *at).collect::<Vec<_>>(), [2, 1, 0]);
    }

    #[test]
    fn out_of_order_binds_still_make_a_dependent_generator_fuse() {
        // x ← xs, y ← b.kids, b ≡ x.child: the planner places `b` right
        // after `x`, so `y` is an unnest, not a join — a linear chain.
        let q = plan_comprehension(&Expr::comp(
            Monoid::Bag,
            Expr::var("y"),
            vec![
                Expr::gen("x", Expr::var("xs")),
                Expr::gen("y", Expr::var("b").proj("kids")),
                Expr::bind("b", Expr::var("x").proj("child")),
            ],
        ))
        .unwrap();
        assert_eq!(engine_of(&q), Engine::Fused);
    }

    /// `sum{ 1 | a ← Hotels, b ← Cities, a.name = b.name }`.
    fn keyed_join() -> Query {
        plan_comprehension(&Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("a", Expr::var("Hotels")),
                Expr::gen("b", Expr::var("Cities")),
                Expr::pred(Expr::var("a").proj("name").eq(Expr::var("b").proj("name"))),
            ],
        ))
        .unwrap()
    }

    #[test]
    fn joins_fuse_into_one_stage_with_a_build_chain_of_their_own() {
        let q = keyed_join();
        assert_eq!(engine_of(&q), Engine::Fused);
        let fq = fold(&q);
        let [Stage::Join { build, left_keys, right_slots, .. }] = fq.chain.stages.as_slice() else {
            panic!("{:?}", fq.chain.stages);
        };
        // Shared slot numbering: `a` is slot 0, `b` slot 1, and no extent
        // is a global — sources are evaluated, not compiled.
        assert_eq!((fq.chain.slot, build.chain.slot), (0, 1));
        assert_eq!((right_slots.as_slice(), left_keys.len(), build.keys.len()), (&[1][..], 1, 1));
        // (Slot 2 is the lane's: the chain is a lane join.)
        assert_eq!((fq.n_slots, fq.n_tables, fq.globals.len()), (3, 1, 0));
    }

    #[test]
    fn multiplicity_only_when_the_head_reads_none_of_the_trailing_generators_slots() {
        let (a, b) = (|| Expr::var("a"), || Expr::var("b"));
        let counted = |q: &Query| fold(q).chain.counted;
        // The join: a constant, a `$param` and a left field are counted;
        // a head that reads the right side, even under a projection, an
        // `if` or a record field, is not.
        let q = keyed_join();
        for head in [Expr::int(1), Expr::param("$w"), a().proj("name")] {
            assert!(counted(&with_head(&q, head.clone())), "{head:?}");
        }
        for head in [
            b(),
            b().proj("name"),
            Expr::if_(Expr::bool(true), Expr::int(1), b().proj("rooms")),
            Expr::record(vec![("x", a()), ("y", b().proj("name"))]),
        ] {
            assert!(!counted(&with_head(&q, head.clone())), "{head:?}");
        }
        // The trailing unnest, a bare scan, and a keyed probe.
        let Plan::Filter { input, .. } = scan_chain().plan().clone() else { panic!() };
        let chain = |head: Expr| Query::new((*input).clone(), Monoid::Sum, head).unwrap();
        assert!(counted(&chain(Expr::var("h").proj("name"))));
        assert!(!counted(&chain(Expr::var("r").proj("bed#"))));
        let hotels = || Plan::Scan { var: "h".into(), source: Expr::var("Hotels") };
        let scan = |head: Expr| Query::new(hotels(), Monoid::Sum, head).unwrap();
        assert!(counted(&scan(Expr::int(1))) && !counted(&scan(Expr::var("h"))));
        let pred = Expr::var("h").proj("name").eq(Expr::param("$n"));
        let probe = Plan::Filter { input: Box::new(hotels()), pred };
        assert!(counted(&Query::new(probe, Monoid::Sum, Expr::bool(true)).unwrap()));
        // A filter after the last generator: no rule. Nor does a build
        // side ever take it.
        assert!(!counted(&with_head(&scan_chain(), Expr::int(1))));
        let q = with_head(&q, Expr::int(1));
        let fq = fold(&q);
        let [Stage::Join { build, .. }] = fq.chain.stages.as_slice() else { panic!() };
        assert!(fq.chain.counted && !build.chain.counted);
    }

    #[test]
    fn only_a_param_free_key_over_a_bare_scan_compiles_to_a_probe() {
        let (h, name) = (|| Expr::var("h"), || Expr::var("h").proj("name"));
        let filtered = |source: Expr, pred: Expr| {
            let input = Box::new(Plan::Scan { var: "h".into(), source });
            Query::new(Plan::Filter { input, pred }, Monoid::Some, Expr::bool(true)).unwrap()
        };
        let hotels = || Expr::var("Hotels");
        let probes =
            [name().eq(Expr::param("$n")), Expr::str("x").eq(name()), name().eq(Expr::var("g"))];
        for pred in probes {
            let q = filtered(hotels(), pred);
            let fq = fold(&q);
            let [Stage::Join { build, left_keys, right_slots, .. }] = fq.chain.stages.as_slice()
            else {
                panic!("{:?}", fq.chain.stages);
            };
            let Source::Probe { table, .. } = &fq.chain.source else { panic!() };
            assert_eq!(*table, build.table);
            assert!(build.chain.stages.is_empty() && build.memo.is_some());
            assert_eq!((left_keys.len(), right_slots.as_slice()), (1, &[build.chain.slot][..]));
        }
        // The key reads a param or another variable, the probe reads `h`,
        // the source reads a param, or the filter is not an equality: a
        // plain filter.
        for (source, pred) in [
            (hotels(), name().add(Expr::param("$s")).eq(Expr::str("x"))),
            (hotels(), name().add(Expr::var("g")).eq(Expr::str("x"))),
            (hotels(), name().eq(h().proj("address"))),
            (Expr::param("$hotels"), name().eq(Expr::str("x"))),
            (hotels(), name().ne(Expr::str("x"))),
        ] {
            let q = filtered(source.clone(), pred.clone());
            let fq = fold(&q);
            assert!(
                matches!(fq.chain.stages.as_slice(), [Stage::Filter { .. }]),
                "{source:?} / {pred:?}: {:?}",
                fq.chain.stages
            );
        }
    }

    #[test]
    fn typed_buckets_chain_rows_in_build_order_and_meet_across_int_and_float() {
        let rows = |n: i64| Arc::new((0..n).map(Value::Int).collect::<Vec<_>>());
        let probe = |t: &Table, key: Value| {
            let mut hits = Vec::new();
            let (heap, env) = (Heap::new(), Env::empty());
            let cx = Cx { heap: &heap, env: &env, roots: &[], tables: &[], counted: false };
            let mut i = t.first_match(&[FusedExpr::Const(key)], &[], None, &cx).unwrap();
            while i != NONE {
                hits.push(i);
                i = t.next[i];
            }
            hits
        };
        let ints = Table::new(rows(4), 4, 1, [7, 8, 7, 7].map(Value::Int).to_vec());
        assert!(matches!(ints.index, KeyIndex::Ordered(_)));
        assert_eq!(probe(&ints, Value::Int(7)), [0, 2, 3]);
        assert_eq!(probe(&ints, Value::Float(8.0)), [1], "1 = 1.0 from the probe side");
        assert!(probe(&ints, Value::Float(7.5)).is_empty());
        assert!(probe(&ints, Value::Float(-0.0)).is_empty() && probe(&ints, Value::Null).is_empty());

        // A build side mixing ints and floats meets the same way.
        let mixed = Table::new(rows(3), 3, 1, vec![Value::Int(1), Value::Float(1.0), Value::Int(2)]);
        assert!(matches!(mixed.index, KeyIndex::Ordered(_)));
        assert_eq!(probe(&mixed, Value::Int(1)), [0, 1]);
        assert_eq!(probe(&mixed, Value::Float(2.0)), [2]);

        let strs = Table::new(rows(3), 3, 1, ["x", "y", "x"].map(Value::str).to_vec());
        assert!(matches!(strs.index, KeyIndex::Str(_)));
        assert_eq!(probe(&strs, Value::str("x")), [0, 2]);
        assert!(probe(&strs, Value::Int(0)).is_empty());

        // No keys: one bucket holding every row.
        let all = Table::new(rows(3), 3, 0, Vec::new());
        assert_eq!(probe(&all, Value::Null), [0, 1, 2]);
        assert!(probe(&Table::new(rows(0), 0, 0, Vec::new()), Value::Null).is_empty());
    }

    #[test]
    fn forms_outside_the_subset_are_evaluated_in_place_and_only_heap_effects_leave_no_fold() {
        // A join key, a right-side filter, a head and a predicate outside
        // the compiled subset each become an evaluated leaf where they
        // stand, with the chain variables they read and their slots.
        let nested = Expr::comp(
            Monoid::Max,
            Expr::var("b").proj("name"),
            vec![Expr::gen("r", Expr::var("b").proj("rooms"))],
        );
        let mut plan = keyed_join().plan().clone();
        let Plan::Join { on, .. } = &mut plan else { panic!() };
        on[0].1 = nested.clone();
        let nested_key = with_plan(&keyed_join(), plan.clone());
        let [Stage::Join { build, .. }] = fold(&nested_key).chain.stages.as_slice() else {
            panic!()
        };
        let b = Symbol::new("b");
        assert_eq!(build.keys, [FusedExpr::Eval { expr: nested, free: vec![(b, 1)] }]);
        let lambda = Expr::lambda("x", Expr::var("x"));
        let Plan::Join { right, .. } = &mut plan else { panic!() };
        **right = Plan::Filter { input: right.clone(), pred: lambda.clone() };
        let nested_right = with_plan(&keyed_join(), plan);
        let [Stage::Join { build, .. }] = fold(&nested_right).chain.stages.as_slice() else {
            panic!()
        };
        let [Stage::Filter { pred: Kernel::Tree(pred), .. }] = build.chain.stages.as_slice() else {
            panic!()
        };
        assert_eq!(pred, &FusedExpr::Eval { expr: lambda.clone(), free: vec![] });

        // An inner binder is no read of the chain variable it shadows.
        let lambda_head = with_head(&scan_chain(), Expr::lambda("r", Expr::var("h")));
        let Kernel::Tree(FusedExpr::Eval { free, .. }) = &fold(&lambda_head).head else {
            panic!()
        };
        assert_eq!(free, &[(Symbol::new("h"), 0)]);
        // A `$param` inside a leaf counts: this build side is never kept.
        let mut plan = keyed_join().plan().clone();
        let Plan::Join { right, .. } = &mut plan else { panic!() };
        let reads_param = Expr::comp(Monoid::Some, Expr::param("$p"), vec![]);
        **right = Plan::Filter { input: right.clone(), pred: reads_param };
        let q = with_plan(&keyed_join(), plan);
        let [Stage::Join { build, .. }] = fold(&q).chain.stages.as_slice() else { panic!() };
        assert!(build.memo.is_none());

        let sum_vector = Monoid::VecOf(Box::new(Monoid::Sum));
        let vector = Query::new(scan_chain().plan().clone(), sum_vector, Expr::int(1)).unwrap();
        assert_eq!(engine_of(&vector), Engine::Fused);
        // Heap effects, in the head or the plan: no query at all.
        let q = scan_chain();
        let alloc = Expr::New(Box::new(Expr::int(1)));
        let allocating = Query::new(q.plan().clone(), Monoid::Sum, alloc);
        let write = Expr::Assign(Box::new(Expr::var("h")), Box::new(Expr::int(1)));
        let input = Box::new(q.plan().clone());
        let writing = Query::new(Plan::Filter { input, pred: write }, Monoid::Sum, Expr::int(1));
        assert_eq!((allocating, writing), (Err(PlanError::Impure), Err(PlanError::Impure)));
    }

    #[test]
    fn shadowed_chain_variables_resolve_innermost_first() {
        // bind shadows the scan variable; references after the bind must
        // see the new slot, just like Env lookup.
        let q = plan_comprehension(&Expr::comp(
            Monoid::Sum,
            Expr::var("h"),
            vec![
                Expr::gen("h", Expr::var("Ints")),
                Expr::bind("h", Expr::var("h").add(Expr::int(1))),
            ],
        ))
        .unwrap();
        let env = Env::empty().bind(
            Symbol::new("Ints"),
            Value::list(vec![Value::Int(10), Value::Int(20)]),
        );
        let mut ev = Evaluator::with_heap(Heap::new());
        let v = try_run_reduce(fold(&q), &mut ev, &env, None, &NoProbe).unwrap();
        assert_eq!(v, Value::Int(32));
    }

    #[test]
    fn a_right_variable_shadows_the_left_one_above_the_join_only() {
        // list{ x.v | x ← Ls, x ← Rs, x.k = x.k }: the left key reads the
        // left `x`, the right key and the head the right one. (Plan
        // verification refuses the rebinding, so this goes straight to the
        // fold.)
        let x = || Expr::var("x");
        let plan = Plan::Join {
            left: Box::new(Plan::Scan { var: "x".into(), source: Expr::var("Ls") }),
            right: Box::new(Plan::Scan { var: "x".into(), source: Expr::var("Rs") }),
            on: vec![(x().proj("k"), x().proj("k"))],
        };
        let q = Query::new(plan, Monoid::List, x().proj("v")).unwrap();
        let row = |k: i64, v: &str| {
            Value::record_from(vec![("k", Value::Int(k)), ("v", Value::str(v))])
        };
        let env = Env::empty()
            .bind("Ls".into(), Value::list(vec![row(1, "left")]))
            .bind("Rs".into(), Value::list(vec![row(2, "other"), row(1, "right")]));
        let mut ev = Evaluator::with_heap(Heap::new());
        let v = try_run_reduce(fold(&q), &mut ev, &env, None, &NoProbe).unwrap();
        assert_eq!(v, Value::list(vec![Value::str("right")]));
    }

    #[test]
    fn missing_global_declines_at_resolution() {
        // `target` is a root the predicate reads: a root cell, read on the
        // first row that reads it, which fails where the walk's read fails
        // — on the first row, and not over an empty extent.
        let q = plan_comprehension(&Expr::comp(
            Monoid::Sum,
            Expr::int(1),
            vec![
                Expr::gen("h", Expr::var("Hotels")),
                Expr::pred(Expr::var("h").proj("name").eq(Expr::var("target"))),
            ],
        ))
        .unwrap();
        let [Stage::Join { left_keys, .. }] = fold(&q).chain.stages.as_slice() else { panic!() };
        assert_eq!(left_keys, &[FusedExpr::Root(0, Symbol::new("target"))]);
        assert!(fold(&q).globals.is_empty() && fold(&q).params.is_empty());
        assert_eq!(fold(&q).n_roots, 1);
        let hotel = Value::record_from(vec![("name", Value::str("x"))]);
        let run = |hotels: Vec<Value>| {
            let env = Env::empty().bind(Symbol::new("Hotels"), Value::list(hotels));
            let mut ev = Evaluator::with_heap(Heap::new());
            try_run_reduce(fold(&q), &mut ev, &env, None, &NoProbe)
        };
        let unbound = monoid_calculus::error::EvalError::UnboundVariable(Symbol::new("target"));
        assert_eq!(run(vec![hotel]), Err(unbound));
        assert_eq!(run(Vec::new()), Ok(Value::Int(0)));

        // A `$param` is part of the run's signature: left unbound, the run
        // is refused at setup, on both engines, before any row is read.
        let mut plan = q.plan().clone();
        let Plan::Filter { pred, .. } = &mut plan else { panic!("{plan:?}") };
        *pred = Expr::var("h").proj("name").eq(Expr::param("$target"));
        let q = with_plan(&q, plan);
        assert_eq!(fold(&q).params, [Symbol::new("$target")]);
        let db = monoid_store::Database::new(monoid_calculus::types::Schema::new());
        let refused = Err(monoid_calculus::error::EvalError::UnboundParameter("$target".into()));
        assert_eq!(crate::execute(&q, &db), refused);
        assert_eq!(crate::execute_plan_walk_bound(&q, &db, &[]), refused);
    }
}
