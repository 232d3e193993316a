//! Offline stand-in for `bytes`: the workspace declares the dependency but uses no item of it.
