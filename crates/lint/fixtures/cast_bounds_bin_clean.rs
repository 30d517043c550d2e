//! Fixture: the same command-line binary with checked conversions.

fn epochs(flag: &str) -> Option<usize> {
    let n: u64 = flag.parse().ok()?;
    usize::try_from(n).ok()
}

fn tenants(list: &[String]) -> Option<u32> {
    u32::try_from(list.len()).ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    println!("{:?} {:?}", epochs(&args[0]), tenants(&args));
}
