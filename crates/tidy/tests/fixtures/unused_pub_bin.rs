fn main() {
    std::process::exit(i32::from(stem_core::api::from_bin()));
}
