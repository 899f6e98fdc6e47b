//! The repo benchmark. See README.md.

fn main() {
    std::process::exit(ap3esm_benchmark::cli::main());
}
