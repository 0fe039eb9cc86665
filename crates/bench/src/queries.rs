//! The benchmark and experiment queries, as calculus builders and OQL
//! sources, for the `experiments` binary and its tests.

use monoid_calculus::expr::Expr;
use monoid_calculus::monoid::Monoid;

/// The paper's §3.1 query in its *nested* OQL form (a subquery in `from`),
/// which exercises the normalizer's unnesting rules.
pub const PORTLAND_NESTED_OQL: &str = "\
select h.name \
from h in (select h2 from c in Cities, h2 in c.hotels \
           where c.name = 'Portland'), \
     r in h.rooms \
where r.bed# = 3";

/// The same query in the flat form the paper derives.
pub const PORTLAND_FLAT_OQL: &str = "\
select h.name from c in Cities, h in c.hotels, r in h.rooms \
where c.name = 'Portland' and r.bed# = 3";

/// B1: the correlated-exists query. Clients who prefer a city that exists:
/// `set{ cl.name | cl ← Clients, p ← cl.preferred, some{ c.name = p | c ← Cities } }`.
///
/// Evaluated as written, the existential rescans `Cities` per
/// (client, preference) pair — `O(clients · cities)`. After normalization
/// (rule N6) the exists becomes a generator plus an equality predicate,
/// which the planner turns into a hash join — `O(clients + cities)`.
pub fn clients_preferring_existing_city() -> Expr {
    Expr::comp(
        Monoid::Set,
        Expr::var("cl").proj("name"),
        vec![
            Expr::gen("cl", Expr::var("Clients")),
            Expr::gen("p", Expr::var("cl").proj("preferred")),
            Expr::pred(Expr::comp(
                Monoid::Some,
                Expr::var("c").proj("name").eq(Expr::var("p")),
                vec![Expr::gen("c", Expr::var("Cities"))],
            )),
        ],
    )
}

/// B2: a deep navigation chain written with *nested subqueries in from* —
/// each level materializes an intermediate bag when evaluated directly.
pub fn deep_navigation_nested(price_limit: i64) -> Expr {
    let level1 = Expr::comp(
        Monoid::Bag,
        Expr::var("h"),
        vec![
            Expr::gen("c", Expr::var("Cities")),
            Expr::gen("h", Expr::var("c").proj("hotels")),
        ],
    );
    let level2 = Expr::comp(
        Monoid::Bag,
        Expr::var("r"),
        vec![Expr::gen("h", level1), Expr::gen("r", Expr::var("h").proj("rooms"))],
    );
    Expr::comp(
        Monoid::Bag,
        Expr::var("r").proj("price"),
        vec![
            Expr::gen("r", level2),
            Expr::pred(Expr::var("r").proj("price").lt(Expr::int(price_limit))),
        ],
    )
}

/// B3: the paper's mixed-collection join, scaled: a list joined with a bag
/// into a set — `set{ (a, b) | a ← xs(list), b ← ys(bag), a = b.k }`.
pub fn mixed_join(n_list: usize, n_bag: usize) -> Expr {
    let xs = Expr::CollLit(
        Monoid::List,
        (0..n_list as i64).map(Expr::int).collect(),
    );
    let ys = Expr::CollLit(
        Monoid::Bag,
        (0..n_bag as i64)
            .map(|i| Expr::record(vec![("k", Expr::int(i % 64)), ("v", Expr::int(i))]))
            .collect(),
    );
    Expr::comp(
        Monoid::Set,
        Expr::Tuple(vec![Expr::var("a"), Expr::var("b").proj("v")]),
        vec![
            Expr::gen("a", xs),
            Expr::gen("b", ys),
            Expr::pred(Expr::var("a").eq(Expr::var("b").proj("k"))),
        ],
    )
}

/// B5 / §4.3: the paper's update program — insert a hotel into a city and
/// bump its `hotel#` counter, as a comprehension over the extent:
///
/// ```text
/// all{ c := ⟨…, hotels = c.hotels ++ [h], hotel# = c.hotel# + 1⟩
///    | c ← Cities, c.name = city, h ← new(⟨…⟩) }
/// ```
pub fn insert_hotel_update(city: &str, hotel_name: &str) -> Expr {
    let new_hotel = Expr::new_obj(Expr::record(vec![
        ("name", Expr::str(hotel_name)),
        ("address", Expr::str("1 New St")),
        ("facilities", Expr::set_of(vec![])),
        ("employees", Expr::list_of(vec![])),
        ("rooms", Expr::list_of(vec![])),
    ]));
    Expr::comp(
        Monoid::All,
        Expr::var("c").assign(Expr::record(vec![
            ("name", Expr::var("c").proj("name")),
            (
                "hotels",
                Expr::merge(
                    Monoid::List,
                    Expr::var("c").proj("hotels"),
                    Expr::CollLit(Monoid::List, vec![Expr::var("h")]),
                ),
            ),
            ("hotel#", Expr::var("c").proj("hotel#").add(Expr::int(1))),
        ])),
        vec![
            Expr::gen("c", Expr::var("Cities")),
            Expr::pred(Expr::var("c").proj("name").eq(Expr::str(city))),
            Expr::gen("h", new_hotel),
        ],
    )
}

/// B5 bulk variant: give every employee a raise through the calculus.
pub fn raise_salaries(amount: i64) -> Expr {
    Expr::comp(
        Monoid::All,
        Expr::var("e").assign(Expr::record(vec![
            ("name", Expr::var("e").proj("name")),
            ("salary", Expr::var("e").proj("salary").add(Expr::int(amount))),
        ])),
        vec![Expr::gen("e", Expr::var("Employees"))],
    )
}

/// B6: an equi-join between two independent extents — employees to
/// clients on (salary mod k) = (age mod k)-style synthetic keys, where `k`
/// controls selectivity.
pub fn employee_client_join(k: i64) -> Expr {
    Expr::comp(
        Monoid::Sum,
        Expr::int(1),
        vec![
            Expr::gen("e", Expr::var("Employees")),
            Expr::gen("cl", Expr::var("Clients")),
            Expr::pred(
                Expr::binop(
                    monoid_calculus::expr::BinOp::Mod,
                    Expr::var("e").proj("salary"),
                    Expr::int(k),
                )
                .eq(Expr::binop(
                    monoid_calculus::expr::BinOp::Mod,
                    Expr::var("cl").proj("age"),
                    Expr::int(k),
                )),
            ),
        ],
    )
}

/// E3 normalization cost: a `depth`-level nest of `from`-subqueries,
/// `bag{ x_d + 1 | x_d ← bag{ … }, x_d > 0 }` down to
/// `bag{ x_0 | x_0 ← Source }`. Rule N5 (flatten-generator) unnests every
/// level, so the canonical form is one comprehension over `Source`.
pub fn deep_nest(depth: usize) -> Expr {
    let mut e = Expr::comp(Monoid::Bag, Expr::var("x0"), vec![Expr::gen("x0", Expr::var("Source"))]);
    for i in 1..=depth {
        let v = format!("x{i}");
        e = Expr::comp(
            Monoid::Bag,
            Expr::var(v.as_str()).add(Expr::int(1)),
            vec![Expr::gen(v.as_str(), e), Expr::pred(Expr::var(v.as_str()).gt(Expr::int(0)))],
        );
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use monoid_calculus::normalize::normalize;
    use monoid_store::travel::{self, TravelScale};

    #[test]
    fn b1_normalizes_to_a_joinable_form() {
        let q = clients_preferring_existing_city();
        let n = normalize(&q);
        // The exists must be gone: three generators, one predicate.
        let monoid_calculus::expr::Expr::Comp { quals, .. } = &n else { panic!() };
        assert_eq!(quals.len(), 4);
        let plan = monoid_algebra::plan_comprehension(&n).unwrap();
        assert!(plan.plan.uses_hash_join(), "{}", monoid_algebra::explain(&plan));
    }

    #[test]
    fn b1_all_three_strategies_agree() {
        let mut db = travel::generate(TravelScale::tiny(), 5);
        let q = clients_preferring_existing_city();
        let naive = db.query(&q).unwrap();
        let n = normalize(&q);
        let flat = db.query(&n).unwrap();
        let plan = monoid_algebra::plan_comprehension(&n).unwrap();
        let piped = monoid_algebra::execute(&plan, &db).unwrap();
        assert_eq!(naive, flat);
        assert_eq!(naive, piped);
    }

    #[test]
    fn b2_nested_equals_normalized() {
        let mut db = travel::generate(TravelScale::tiny(), 5);
        let q = deep_navigation_nested(200);
        let naive = db.query(&q).unwrap();
        let n = normalize(&q);
        let flat = db.query(&n).unwrap();
        assert_eq!(naive, flat);
        // Normalized: a single flat comprehension.
        let monoid_calculus::expr::Expr::Comp { quals, .. } = &n else { panic!() };
        assert_eq!(quals.len(), 4);
    }

    #[test]
    fn deep_nest_normalizes_to_one_generator() {
        let n = normalize(&deep_nest(8));
        let monoid_calculus::expr::Expr::Comp { quals, .. } = &n else { panic!() };
        assert_eq!(quals.len(), 9, "one generator plus one predicate per level");
        assert_eq!(normalize(&n), n);
    }

    #[test]
    fn b3_mixed_join_evaluates() {
        let q = mixed_join(100, 100);
        let v = monoid_calculus::eval::eval_closed(&q).unwrap();
        assert!(v.len().unwrap() > 0);
        let n = normalize(&q);
        assert_eq!(monoid_calculus::eval::eval_closed(&n).unwrap(), v);
    }

    #[test]
    fn update_program_inserts_hotel() {
        let mut db = travel::generate(TravelScale::tiny(), 5);
        let before = db
            .query(&Expr::comp(
                Monoid::Sum,
                Expr::var("c").proj("hotel#"),
                vec![Expr::gen("c", Expr::var("Cities"))],
            ))
            .unwrap();
        let upd = insert_hotel_update("Portland", "hotel_new");
        assert_eq!(
            db.query(&upd).unwrap(),
            monoid_calculus::value::Value::Bool(true)
        );
        let after = db
            .query(&Expr::comp(
                Monoid::Sum,
                Expr::var("c").proj("hotel#"),
                vec![Expr::gen("c", Expr::var("Cities"))],
            ))
            .unwrap();
        use monoid_calculus::value::Value;
        let (Value::Int(b), Value::Int(a)) = (before, after) else { panic!() };
        assert_eq!(a, b + 1);
        // The new hotel is reachable through the city.
        let names = db
            .query(
                &monoid_oql::compile(
                    &travel::schema(),
                    "select h.name from c in Cities, h in c.hotels \
                     where c.name = 'Portland'",
                )
                .unwrap(),
            )
            .unwrap();
        assert!(names
            .elements()
            .unwrap()
            .contains(&Value::str("hotel_new")));
    }

    #[test]
    fn raise_salaries_updates_every_employee() {
        let mut db = travel::generate(TravelScale::tiny(), 5);
        let total = |db: &mut monoid_store::Database| {
            db.query(&Expr::comp(
                Monoid::Sum,
                Expr::var("e").proj("salary"),
                vec![Expr::gen("e", Expr::var("Employees"))],
            ))
            .unwrap()
        };
        let before = total(&mut db);
        db.query(&raise_salaries(1000)).unwrap();
        let after = total(&mut db);
        use monoid_calculus::value::Value;
        let (Value::Int(b), Value::Int(a)) = (before, after) else { panic!() };
        let n = db.extent_len("Employees") as i64;
        assert_eq!(a, b + 1000 * n);
    }
}
