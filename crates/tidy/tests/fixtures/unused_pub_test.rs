#[test]
fn calls_the_library() {
    assert_eq!(stem_core::api::from_integration_test(), 2);
}
