pub fn never_called() -> u32 {
    7
}

pub mod inner {
    pub struct OnlyReexported;
}
pub use inner::OnlyReexported;

pub fn only_tested() -> bool {
    true
}

#[cfg(test)]
mod tests {
    #[test]
    fn only_tested_is_true() {
        assert!(super::only_tested());
    }
}
