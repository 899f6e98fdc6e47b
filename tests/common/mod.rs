//! Helpers shared by the integration tests that read a run directory.

use ap3esm::obs::json::Json;
use std::path::Path;

/// The members of the run directory `dir`, sorted, after asserting that its
/// manifest's `files` index lists exactly what is in the directory.
pub fn run_dir_members(dir: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest.json");
    let manifest = Json::parse(&text).expect("manifest parses");
    let files: Vec<String> = manifest
        .get("files")
        .and_then(Json::as_arr)
        .expect("manifest files")
        .iter()
        .map(|f| f.as_str().expect("file name").to_string())
        .collect();
    let mut listing: Vec<String> = std::fs::read_dir(dir)
        .expect("run directory")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    listing.sort();
    assert_eq!(files, listing, "{}: files index vs listing", dir.display());
    listing
}

/// The manifest's `reason`: `"ok"` or the trouble the run ended in.
pub fn run_dir_reason(dir: &Path) -> String {
    let text = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest.json");
    let manifest = Json::parse(&text).expect("manifest parses");
    manifest
        .get("reason")
        .and_then(Json::as_str)
        .expect("reason")
        .to_string()
}
