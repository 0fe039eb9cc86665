//! The store's footprint: the live bytes one stored hotel costs, counted
//! by this binary's own global allocator.
//!
//! The binary holds exactly one test, so no sibling test thread allocates
//! while the count runs. Live bytes are the sizes the program asked for
//! (`Layout::size`), less what it freed; the allocator's own headers and
//! size classes are not counted.
//!
//! The hotel is `oqlbench`'s `mixed-rw` write (`written_hotel`): a name,
//! an address, no facilities, no employees and two two-field rooms. It is
//! inserted 8 000 times into the `mixed-rw` store (10 cities × 100 hotels,
//! 4 rooms and 1 employee each, 6 500 clients), with no snapshot held, so
//! the figure also carries the heap's and the `Hotels` extent's growth,
//! amortized over the inserts. The benchmark's write clock is fixed, so a
//! faster cycle commits more hotels; this figure is what each one costs.
//!
//! Measured on x86_64 (the sizes asked for do not depend on the build
//! profile): 782.6 bytes and 12 allocations per hotel when a record and
//! a tuple were an `Arc` over a `Vec` and every empty list and set
//! allocated its own `Arc`; 598.6 bytes and 7 allocations with a record
//! one allocation and the empty collections shared. Each allocation
//! saved also saves the allocator's header, which this count leaves out.

use monoid_db::calculus::symbol::Symbol;
use monoid_db::calculus::value::Value;
use monoid_db::store::travel::{self, TravelScale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_ALLOCS: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        LIVE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        LIVE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        LIVE_ALLOCS.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(bytes, allocations)` live now.
fn live() -> (i64, i64) {
    (LIVE_BYTES.load(Ordering::SeqCst), LIVE_ALLOCS.load(Ordering::SeqCst))
}

/// Hotels inserted in the measured window.
const HOTELS: u64 = 8_000;

/// Live bytes per stored hotel, pinned with 5 % slack.
const BYTES_PER_HOTEL: f64 = 598.6;

/// `oqlbench`'s `mixed-rw` write number `write` under `seed`.
fn written_hotel(seed: u64, write: u64) -> Value {
    let mix = (write ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
    let rooms = (0..2)
        .map(|room| {
            Value::record_from(vec![
                ("bed#", Value::Int(1 + ((mix >> room) % 4) as i64)),
                ("price", Value::Float((40 + (mix >> (8 * room)) % 360) as f64)),
            ])
        })
        .collect();
    Value::record_from(vec![
        ("name", Value::str(&format!("hotel_w_{write}"))),
        ("address", Value::str(&format!("{write} Side St"))),
        ("facilities", Value::set_from(Vec::new())),
        ("employees", Value::list(Vec::new())),
        ("rooms", Value::list(rooms)),
    ])
}

#[test]
fn a_stored_hotel_costs_its_pinned_bytes() {
    let scale = TravelScale {
        cities: 10,
        hotels_per_city: 100,
        rooms_per_hotel: 4,
        employees_per_hotel: 1,
        clients: 6500,
    };
    let mut db = travel::generate(scale, 1995);
    let hotel = Symbol::new(travel::names::HOTEL);
    let (bytes, allocs) = live();
    for write in 0..HOTELS {
        db.insert(hotel, written_hotel(1995, write)).expect("a hotel commits");
    }
    let (grown_bytes, grown_allocs) = live();
    let per_hotel = (grown_bytes - bytes) as f64 / HOTELS as f64;
    let allocs_per_hotel = (grown_allocs - allocs) as f64 / HOTELS as f64;
    println!("{per_hotel:.1} bytes, {allocs_per_hotel:.2} allocations per stored hotel");
    assert_eq!(db.extent_len(travel::names::HOTELS), 1000 + HOTELS as usize);
    assert!(
        per_hotel <= BYTES_PER_HOTEL * 1.05,
        "a stored hotel costs {per_hotel:.1} bytes, pinned at {BYTES_PER_HOTEL} (+5 %)"
    );
}
