//! Fixture: the message enum comes out of a macro, so R4's lexical scan
//! finds only `$variant` in the `enum Message` body, no variant name.

macro_rules! messages {
    ($($variant:ident),*) => {
        /// Wire protocol messages.
        pub enum Message {
            $(
                /// A message.
                $variant,
            )*
        }
    };
}

messages!(Ping, Pong);
