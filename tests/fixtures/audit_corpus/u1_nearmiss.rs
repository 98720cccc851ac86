pub struct Meters(pub f64);

pub fn halve(m: Meters) -> Meters {
    Meters(m.0 / 2.0)
}

fn quarter(m: Meters) -> Meters {
    halve(halve(m))
}

impl std::fmt::Display for Meters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} m ({} m quartered)", self.0, quarter(Meters(self.0)).0)
    }
}

pub(crate) fn crate_only() -> u8 {
    1
}

// "pub fn in_a_string" and this comment do not define items.
const LABEL: &str = "pub fn in_a_string() {}";
