//! Offline stand-in for `serde_derive`: the derives expand to nothing.
//! The workspace derives `Serialize`/`Deserialize` on model types but the
//! code the ledger builds never serialises through serde, so no impl is
//! needed — only the derive names and the `#[serde(..)]` helper attribute.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
