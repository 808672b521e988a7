//! Distances compared loosely: the rule must flag both tolerances, and
//! nothing else in this file.

pub fn same(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.max(1.0)
}

pub fn slack() -> f64 {
    0.000_000_5
}

pub const HALF: f64 = 0.5;
pub const COARSE: f64 = 1e-3;
pub const MASK: u32 = 0x1e - 5;
pub const ZERO: f64 = 0.0;

// lint: allow(float-tolerance): planar snapping, not a network distance
pub const SNAP: f64 = 1e-12;

#[cfg(test)]
mod tests {
    #[test]
    fn close() {
        assert!((0.1f64 + 0.2 - 0.3).abs() < 1e-12);
    }
}
