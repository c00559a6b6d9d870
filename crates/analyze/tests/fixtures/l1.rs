//! L1 fixture: lock guards held across blocking work.

use std::io::Write;
use std::sync::{Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

pub fn positive(mu: &Mutex<Vec<u8>>, out: &mut impl Write) {
    let guard = lock(mu);
    let _ = out.write_all(&guard);
}

pub fn negative_dropped(mu: &Mutex<Vec<u8>>, out: &mut impl Write) {
    let guard = lock(mu);
    let copy = guard.to_vec();
    drop(guard);
    let _ = out.write_all(&copy);
}

pub fn negative_detached(mu: &Mutex<Vec<u8>>, out: &mut impl Write) {
    let empty = lock(mu).is_empty();
    if !empty {
        let _ = out.write_all(b"x");
    }
}

pub fn negative_scoped(mu: &Mutex<Vec<u8>>, out: &mut impl Write) {
    {
        let guard = lock(mu);
        let _ = guard.first();
    }
    let _ = out.write_all(b"done");
}
