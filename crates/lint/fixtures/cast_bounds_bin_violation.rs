//! Fixture: a command-line binary narrowing a parsed count and a list
//! length with no local evidence that either fits.

fn epochs(flag: &str) -> usize {
    let n: u64 = flag.parse().unwrap_or(0);
    n as usize
}

fn tenants(list: &[String]) -> u32 {
    list.len() as u32
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    println!("{} {}", epochs(&args[0]), tenants(&args));
}
