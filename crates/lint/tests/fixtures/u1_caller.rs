// Fixture: a caller of two of `u1_definitions.rs`'s functions.

fn main() {
    demo::called_elsewhere();
    demo::calls_the_helpers();
}
