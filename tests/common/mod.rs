//! Helpers shared by the integration-test binaries.

use std::path::Path;

/// Compares `current` with the golden at `rel` (repo-relative) byte for
/// byte, or rewrites the golden when `FUSEMAX_UPDATE_GOLDEN` is set. A
/// mismatch names the golden and the `cargo test --test <test_name>`
/// command that re-blesses it.
pub fn check_golden(rel: &str, current: &str, test_name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("FUSEMAX_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, current).expect("write golden");
        eprintln!("golden updated at {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        current, golden,
        "output differs from the golden {rel}.\n\
         If the change is intentional, regenerate with\n\
         FUSEMAX_UPDATE_GOLDEN=1 cargo test --test {test_name}"
    );
}
