//! The paper's travel-agency database.
//!
//! Fegaras & Maier's running examples query a travel-agency schema:
//! cities with hotels (`c.hotels`), hotels with names, addresses,
//! facilities, employees and rooms (`h.rooms`), rooms with a number of beds
//! (`r.bed#`) and a price, and clients. The §4.3 update program inserts a
//! hotel into a city and bumps its `hotel#` counter. The authors' actual
//! data was never distributed, so this module provides a schema-identical,
//! deterministic, seeded generator at configurable scale (see DESIGN.md §5
//! "Substitutions") — city 0 is always `"Portland"` so the paper's queries
//! run verbatim.

use crate::database::Database;
use monoid_calculus::symbol::Symbol;
use monoid_calculus::types::{ClassDef, Schema, Type};
use monoid_calculus::value::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Class and extent names of the travel schema.
pub mod names {
    pub const CITY: &str = "City";
    pub const CITIES: &str = "Cities";
    pub const HOTEL: &str = "Hotel";
    pub const HOTELS: &str = "Hotels";
    pub const EMPLOYEE: &str = "Employee";
    pub const EMPLOYEES: &str = "Employees";
    pub const CLIENT: &str = "Client";
    pub const CLIENTS: &str = "Clients";
}

/// How much data to generate. All distributions are deterministic in the
/// seed, so every run (and every benchmark baseline) sees identical data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TravelScale {
    pub cities: usize,
    pub hotels_per_city: usize,
    pub rooms_per_hotel: usize,
    pub employees_per_hotel: usize,
    pub clients: usize,
}

impl TravelScale {
    /// A handful of objects — fast unit tests.
    pub fn tiny() -> TravelScale {
        TravelScale {
            cities: 3,
            hotels_per_city: 2,
            rooms_per_hotel: 3,
            employees_per_hotel: 2,
            clients: 5,
        }
    }

    /// A small database — integration tests.
    pub fn small() -> TravelScale {
        TravelScale {
            cities: 10,
            hotels_per_city: 5,
            rooms_per_hotel: 8,
            employees_per_hotel: 3,
            clients: 50,
        }
    }

    /// Scale the hotel count (the benchmark sweep dimension) while keeping
    /// the rest proportionate.
    pub fn with_hotels(total_hotels: usize) -> TravelScale {
        let cities = (total_hotels / 10).max(1);
        TravelScale {
            cities,
            hotels_per_city: total_hotels.div_ceil(cities),
            rooms_per_hotel: 5,
            employees_per_hotel: 2,
            clients: total_hotels / 2,
        }
    }

    pub fn total_hotels(&self) -> usize {
        self.cities * self.hotels_per_city
    }
}

/// The travel-agency schema (paper §3/§4.3).
pub fn schema() -> Schema {
    let s = |n: &str| Symbol::new(n);
    let mut schema = Schema::new();
    schema.add_class(ClassDef {
        name: s(names::EMPLOYEE),
        state: Type::record(vec![
            (s("name"), Type::Str),
            (s("salary"), Type::Int),
        ]),
        extent: Some(s(names::EMPLOYEES)),
        superclass: None,
    });
    schema.add_class(ClassDef {
        name: s(names::HOTEL),
        state: Type::record(vec![
            (s("name"), Type::Str),
            (s("address"), Type::Str),
            (s("facilities"), Type::set(Type::Str)),
            (s("employees"), Type::list(Type::Class(s(names::EMPLOYEE)))),
            (s("rooms"), Type::list(room_type())),
        ]),
        extent: Some(s(names::HOTELS)),
        superclass: None,
    });
    schema.add_class(ClassDef {
        name: s(names::CITY),
        state: Type::record(vec![
            (s("name"), Type::Str),
            (s("hotels"), Type::list(Type::Class(s(names::HOTEL)))),
            (s("hotel#"), Type::Int),
        ]),
        extent: Some(s(names::CITIES)),
        superclass: None,
    });
    schema.add_class(ClassDef {
        name: s(names::CLIENT),
        state: Type::record(vec![
            (s("name"), Type::Str),
            (s("age"), Type::Int),
            (s("budget"), Type::Float),
            (s("preferred"), Type::list(Type::Str)),
        ]),
        extent: Some(s(names::CLIENTS)),
        superclass: None,
    });
    schema
}

/// The (anonymous record) type of a room: `⟨bed#: int, price: float⟩`.
pub fn room_type() -> Type {
    Type::record(vec![
        (Symbol::new("bed#"), Type::Int),
        (Symbol::new("price"), Type::Float),
    ])
}

const FACILITIES: &[&str] = &["pool", "gym", "sauna", "restaurant", "parking", "wifi"];
const CITY_NAMES: &[&str] = &[
    "Portland", "Seattle", "Boston", "Austin", "Denver", "Chicago", "Houston", "Phoenix",
    "Atlanta", "Detroit",
];

/// Generate a travel database at the given scale, deterministically from
/// `seed`. City 0 is always `"Portland"`.
pub fn generate(scale: TravelScale, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(schema());
    let city_c = Symbol::new(names::CITY);
    let hotel_c = Symbol::new(names::HOTEL);
    let employee_c = Symbol::new(names::EMPLOYEE);
    let client_c = Symbol::new(names::CLIENT);

    #[allow(clippy::needless_range_loop)] // ci names cities and picks CITY_NAMES
    for ci in 0..scale.cities {
        let mut hotel_objs = Vec::with_capacity(scale.hotels_per_city);
        for hi in 0..scale.hotels_per_city {
            // employees
            let mut employee_objs = Vec::with_capacity(scale.employees_per_hotel);
            for ei in 0..scale.employees_per_hotel {
                let oid = db
                    .insert(
                        employee_c,
                        Value::record_from(vec![
                            ("name", Value::str(&format!("emp_{ci}_{hi}_{ei}"))),
                            ("salary", Value::Int(rng.random_range(20_000..90_000))),
                        ]),
                    )
                    .expect("insert employee");
                employee_objs.push(Value::Obj(oid));
            }
            // rooms (plain records — no identity needed)
            let rooms: Vec<Value> = (0..scale.rooms_per_hotel)
                .map(|_| {
                    Value::record_from(vec![
                        ("bed#", Value::Int(rng.random_range(1..=4))),
                        (
                            "price",
                            Value::Float(f64::from(rng.random_range(40..400))),
                        ),
                    ])
                })
                .collect();
            // facilities: a random subset
            let facilities: Vec<Value> = FACILITIES
                .iter()
                .filter(|_| rng.random_bool(0.5))
                .map(|f| Value::str(f))
                .collect();
            let oid = db
                .insert(
                    hotel_c,
                    Value::record_from(vec![
                        ("name", Value::str(&format!("hotel_{ci}_{hi}"))),
                        ("address", Value::str(&format!("{hi} Main St, city {ci}"))),
                        ("facilities", Value::set_from(facilities)),
                        ("employees", Value::list(employee_objs)),
                        ("rooms", Value::list(rooms)),
                    ]),
                )
                .expect("insert hotel");
            hotel_objs.push(Value::Obj(oid));
        }
        let city_name = if ci < CITY_NAMES.len() {
            CITY_NAMES[ci].to_string()
        } else {
            format!("city_{ci}")
        };
        let hotel_count = hotel_objs.len() as i64;
        db.insert(
            city_c,
            Value::record_from(vec![
                ("name", Value::str(&city_name)),
                ("hotels", Value::list(hotel_objs)),
                ("hotel#", Value::Int(hotel_count)),
            ]),
        )
        .expect("insert city");
    }

    for ki in 0..scale.clients {
        let n_pref = rng.random_range(0..3usize);
        let preferred: Vec<Value> = (0..n_pref)
            .map(|_| {
                let ci = rng.random_range(0..scale.cities.max(1));
                let name = if ci < CITY_NAMES.len() {
                    CITY_NAMES[ci].to_string()
                } else {
                    format!("city_{ci}")
                };
                Value::str(&name)
            })
            .collect();
        db.insert(
            client_c,
            Value::record_from(vec![
                ("name", Value::str(&format!("client_{ki}"))),
                ("age", Value::Int(rng.random_range(18..90))),
                ("budget", Value::Float(f64::from(rng.random_range(50..500)))),
                ("preferred", Value::list(preferred)),
            ]),
        )
        .expect("insert client");
    }

    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use monoid_calculus::expr::Expr;
    use monoid_calculus::monoid::Monoid;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(TravelScale::tiny(), 7);
        let b = generate(TravelScale::tiny(), 7);
        assert_eq!(a.object_count(), b.object_count());
        let q = Expr::comp(
            Monoid::Sum,
            Expr::var("e").proj("salary"),
            vec![Expr::gen("e", Expr::var("Employees"))],
        );
        let mut a = a;
        let mut b = b;
        assert_eq!(a.query(&q).unwrap(), b.query(&q).unwrap());
        let c = generate(TravelScale::tiny(), 8);
        let mut c = c;
        // Different seed ⇒ (almost surely) different payroll.
        assert_ne!(a.query(&q).unwrap(), c.query(&q).unwrap());
    }

    #[test]
    fn extent_lengths_match_scale() {
        let scale = TravelScale::tiny();
        let db = generate(scale, 1);
        assert_eq!(db.extent_len(names::CITIES), scale.cities);
        assert_eq!(db.extent_len(names::HOTELS), scale.total_hotels());
        assert_eq!(db.extent_len(names::CLIENTS), scale.clients);
        assert_eq!(
            db.extent_len(names::EMPLOYEES),
            scale.total_hotels() * scale.employees_per_hotel
        );
    }

    #[test]
    fn portland_exists_and_paper_query_runs() {
        let mut db = generate(TravelScale::tiny(), 42);
        // The paper's normalized Portland query:
        // bag{ h.name | c ← Cities, c.name = "Portland",
        //               h ← c.hotels, r ← h.rooms, r.bed# = 3 }
        let q = Expr::comp(
            Monoid::Bag,
            Expr::var("h").proj("name"),
            vec![
                Expr::gen("c", Expr::var("Cities")),
                Expr::pred(Expr::var("c").proj("name").eq(Expr::str("Portland"))),
                Expr::gen("h", Expr::var("c").proj("hotels")),
                Expr::gen("r", Expr::var("h").proj("rooms")),
                Expr::pred(Expr::var("r").proj("bed#").eq(Expr::int(3))),
            ],
        );
        // Type-checks against the schema and runs.
        db.check(&q).unwrap();
        let result = db.query(&q).unwrap();
        assert!(matches!(result, Value::Bag(_)));
    }

    #[test]
    fn with_hotels_hits_target() {
        let s = TravelScale::with_hotels(100);
        assert!(s.total_hotels() >= 100);
        assert!(s.total_hotels() < 120);
    }
}
