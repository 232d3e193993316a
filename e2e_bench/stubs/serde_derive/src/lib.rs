//! `#[derive(Serialize, Deserialize)]` for the offline serde stand-in.
//!
//! No `syn`/`quote` (the registry is unreachable): the item is read straight
//! off the `proc_macro` token stream and the impl is emitted as source text.
//! Supported: non-generic structs (named, tuple, unit) and enums (unit,
//! tuple and struct variants, externally tagged), the field attributes
//! `#[serde(default)]` / `#[serde(default = "path")]`, and the container
//! attributes `#[serde(default)]` / `#[serde(rename_all = "lowercase")]`.
//! Anything else is a compile error rather than a silent difference from
//! the published crate.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum FieldDefault {
    /// Missing field is an error (or `None` for `Option`).
    Required,
    /// `Default::default()`.
    Trait,
    /// A named function.
    Path(String),
}

struct Field {
    name: String,
    default: FieldDefault,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
    /// Container-level `#[serde(default)]`.
    default: bool,
    /// Container-level `#[serde(rename_all = "lowercase")]`.
    lowercase: bool,
}

#[derive(Default)]
struct SerdeAttrs {
    default: Option<FieldDefault>,
    lowercase: bool,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(t: Option<&TokenTree>, c: char) -> bool {
    matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

/// Consume leading `#[...]` attributes, returning what the `serde` ones say.
fn take_attrs(it: &mut Tokens) -> Result<SerdeAttrs, String> {
    let mut out = SerdeAttrs::default();
    while is_punct(it.peek(), '#') {
        it.next();
        let Some(TokenTree::Group(g)) = it.next() else {
            return Err("expected `[...]` after `#`".into());
        };
        let mut inner = g.stream().into_iter();
        match inner.next() {
            Some(TokenTree::Ident(i)) if i.to_string() == "serde" => {}
            _ => continue,
        }
        let Some(TokenTree::Group(args)) = inner.next() else {
            return Err("expected `serde(...)`".into());
        };
        let mut args = args.stream().into_iter().peekable();
        while let Some(tok) = args.next() {
            let TokenTree::Ident(key) = tok else {
                return Err("expected an identifier in `serde(...)`".into());
            };
            let value = if is_punct(args.peek(), '=') {
                args.next();
                match args.next() {
                    Some(TokenTree::Literal(l)) => {
                        Some(l.to_string().trim_matches('"').to_string())
                    }
                    _ => return Err("expected a string literal after `=`".into()),
                }
            } else {
                None
            };
            match (key.to_string().as_str(), value) {
                ("default", None) => out.default = Some(FieldDefault::Trait),
                ("default", Some(path)) => out.default = Some(FieldDefault::Path(path)),
                ("rename_all", Some(v)) if v == "lowercase" => out.lowercase = true,
                (k, _) => return Err(format!("unsupported serde attribute `{k}`")),
            }
            if is_punct(args.peek(), ',') {
                args.next();
            }
        }
    }
    Ok(out)
}

fn take_visibility(it: &mut Tokens) {
    if matches!(it.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

/// Skip tokens up to and including the next comma that is not nested in
/// `<...>`; returns whether anything was skipped before it.
fn skip_to_comma(it: &mut Tokens) -> bool {
    let mut depth = 0i32;
    let mut any = false;
    let mut prev_dash = false;
    for tok in it.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                ',' if depth == 0 => return any,
                '<' => depth += 1,
                '>' if !prev_dash => depth -= 1,
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        any = true;
    }
    any
}

fn parse_named(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut it = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = take_attrs(&mut it)?;
        if it.peek().is_none() {
            return Ok(fields);
        }
        take_visibility(&mut it);
        let Some(TokenTree::Ident(name)) = it.next() else {
            return Err("expected a field name".into());
        };
        if !is_punct(it.next().as_ref(), ':') {
            return Err("expected `:` after field name".into());
        }
        skip_to_comma(&mut it);
        let name = name.to_string();
        fields.push(Field {
            name: name.strip_prefix("r#").unwrap_or(&name).to_string(),
            default: attrs.default.unwrap_or(FieldDefault::Required),
        });
    }
}

fn count_tuple(stream: TokenStream) -> usize {
    let mut it = stream.into_iter().peekable();
    let mut n = 0;
    while it.peek().is_some() {
        if skip_to_comma(&mut it) {
            n += 1;
        }
    }
    n
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut it = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        take_attrs(&mut it)?;
        let Some(tok) = it.next() else {
            return Ok(variants);
        };
        let TokenTree::Ident(name) = tok else {
            return Err("expected a variant name".into());
        };
        let shape = match it.peek() {
            Some(TokenTree::Group(g)) => {
                let shape = match g.delimiter() {
                    Delimiter::Parenthesis => Shape::Tuple(count_tuple(g.stream())),
                    Delimiter::Brace => Shape::Named(parse_named(g.stream())?),
                    _ => return Err("unexpected group in variant".into()),
                };
                it.next();
                shape
            }
            _ => Shape::Unit,
        };
        // An explicit discriminant, then the separating comma.
        skip_to_comma(&mut it);
        variants.push(Variant {
            name: name.to_string(),
            shape,
        });
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut it = input.into_iter().peekable();
    let attrs = take_attrs(&mut it)?;
    take_visibility(&mut it);
    let kind = match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    let Some(TokenTree::Ident(name)) = it.next() else {
        return Err("expected the type name".into());
    };
    if is_punct(it.peek(), '<') {
        return Err("generic types are not supported by the offline serde derive".into());
    }
    let body = match (kind.as_str(), it.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(Shape::Named(parse_named(g.stream())?))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(Shape::Tuple(count_tuple(g.stream())))
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Body::Struct(Shape::Unit),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Enum(parse_variants(g.stream())?)
        }
        _ => return Err("unsupported item shape".into()),
    };
    Ok(Item {
        name: name.to_string(),
        body,
        default: matches!(attrs.default, Some(FieldDefault::Trait)),
        lowercase: attrs.lowercase,
    })
}

/// A Rust string literal holding `s`.
fn lit(s: &str) -> String {
    format!("{s:?}")
}

const SER: &str = "::serde::Serialize::serialize";
const DE: &str = "::serde::Deserialize::deserialize(p)?";

/// Statements writing `{"a":<a>,"b":<b>}` where `access(name)` is the
/// expression for a field.
fn ser_named(fields: &[Field], access: impl Fn(usize, &str) -> String) -> String {
    if fields.is_empty() {
        return "out.push_str(\"{}\");".into();
    }
    let mut code = String::new();
    for (i, f) in fields.iter().enumerate() {
        let lead = if i == 0 { "{" } else { "," };
        let key = format!("{lead}\"{}\":", f.name);
        code += &format!(
            "out.push_str({}); {SER}({}, out);",
            lit(&key),
            access(i, &f.name)
        );
    }
    code + "out.push('}');"
}

/// Statements writing `[<f0>,<f1>]` over bindings `__a0..`.
fn ser_tuple(n: usize, access: impl Fn(usize) -> String) -> String {
    let mut code = String::from("out.push('[');");
    for i in 0..n {
        if i > 0 {
            code += "out.push(',');";
        }
        code += &format!("{SER}({}, out);", access(i));
    }
    code + "out.push(']');"
}

fn variant_key(item: &Item, v: &Variant) -> String {
    if item.lowercase {
        v.name.to_lowercase()
    } else {
        v.name.clone()
    }
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Named(fields)) => ser_named(fields, |_, f| format!("&self.{f}")),
        Body::Struct(Shape::Tuple(1)) => format!("{SER}(&self.0, out);"),
        Body::Struct(Shape::Tuple(n)) => ser_tuple(*n, |i| format!("&self.{i}")),
        Body::Struct(Shape::Unit) => "out.push_str(\"null\");".into(),
        Body::Enum(variants) if variants.is_empty() => "match *self {}".into(),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let key = variant_key(item, v);
                let open = lit(&format!("{{\"{key}\":"));
                arms += &match &v.shape {
                    Shape::Unit => format!(
                        "{name}::{} => out.push_str({}),",
                        v.name,
                        lit(&format!("\"{key}\""))
                    ),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__a{i}")).collect();
                        let inner = if *n == 1 {
                            format!("{SER}(__a0, out);")
                        } else {
                            ser_tuple(*n, |i| format!("__a{i}"))
                        };
                        format!(
                            "{name}::{}({}) => {{ out.push_str({open}); {inner} out.push('}}'); }}",
                            v.name,
                            binds.join(", ")
                        )
                    }
                    Shape::Named(fields) => {
                        // Bind under fresh names: a field may be called `out`.
                        let binds: Vec<String> = fields
                            .iter()
                            .enumerate()
                            .map(|(i, f)| format!("{}: __b{i}", f.name))
                            .collect();
                        format!(
                            "{name}::{} {{ {} }} => {{ out.push_str({open}); {} out.push('}}'); }}",
                            v.name,
                            binds.join(", "),
                            ser_named(fields, |i, _| format!("__b{i}"))
                        )
                    }
                };
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
            fn serialize(&self, out: &mut ::std::string::String) {{ {body} }} \
        }}"
    )
}

/// An expression parsing `{...}` at the cursor into `ctor { fields }`.
/// `container_default` names a binding holding `Default::default()` of the
/// container, for `#[serde(default)]` on a struct.
fn de_named(ctor: &str, fields: &[Field], container_default: Option<&str>) -> String {
    let mut decls = String::new();
    let mut arms = String::new();
    let mut build = String::new();
    for (i, f) in fields.iter().enumerate() {
        decls += &format!("let mut __f{i} = ::std::option::Option::None;");
        arms += &format!(
            "{} => __f{i} = ::std::option::Option::Some({DE}),",
            lit(&f.name)
        );
        let missing = match (&f.default, container_default) {
            (FieldDefault::Path(path), _) => format!("{path}()"),
            (FieldDefault::Trait, _) => "::std::default::Default::default()".into(),
            (FieldDefault::Required, Some(d)) => format!("{d}.{}", f.name),
            (FieldDefault::Required, None) => {
                format!("::serde::Deserialize::missing_field({})?", lit(&f.name))
            }
        };
        build += &format!(
            "{}: match __f{i} {{ \
                ::std::option::Option::Some(__v) => __v, \
                ::std::option::Option::None => {missing}, \
            }},",
            f.name
        );
    }
    format!(
        "{{ {decls} \
            p.begin_object()?; \
            while let ::std::option::Option::Some(__k) = p.next_key()? {{ \
                match &*__k {{ {arms} _ => p.skip_value()?, }} \
            }} \
            {ctor} {{ {build} }} \
        }}"
    )
}

/// An expression parsing `[...]` at the cursor into `ctor(f0, f1, ..)`.
fn de_tuple(ctor: &str, n: usize) -> String {
    if n == 1 {
        return format!("{ctor}({DE})");
    }
    let mut code = String::from("{ p.begin_array()?;");
    let mut args = Vec::new();
    for i in 0..n {
        code += &format!("let __a{i} = {{ p.expect_element()?; {DE} }};");
        args.push(format!("__a{i}"));
    }
    code + &format!("p.end_array()?; {ctor}({}) }}", args.join(", "))
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Named(fields)) if item.default => format!(
            "let __d: {name} = ::std::default::Default::default(); \
             ::std::result::Result::Ok({})",
            de_named(name, fields, Some("__d"))
        ),
        Body::Struct(Shape::Named(fields)) => {
            format!(
                "::std::result::Result::Ok({})",
                de_named(name, fields, None)
            )
        }
        Body::Struct(Shape::Tuple(n)) => {
            format!("::std::result::Result::Ok({})", de_tuple(name, *n))
        }
        Body::Struct(Shape::Unit) => format!(
            "if p.parse_null()? {{ ::std::result::Result::Ok({name}) }} \
             else {{ ::std::result::Result::Err(p.error(\"expected null\")) }}"
        ),
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let key = lit(&variant_key(item, v));
                let ctor = format!("{name}::{}", v.name);
                tagged_arms += &match &v.shape {
                    Shape::Unit => {
                        unit_arms += &format!("{key} => ::std::result::Result::Ok({ctor}),");
                        format!("{key} => {{ p.skip_value()?; {ctor} }}")
                    }
                    Shape::Tuple(n) => format!("{key} => {},", de_tuple(&ctor, *n)),
                    Shape::Named(fields) => format!("{key} => {},", de_named(&ctor, fields, None)),
                };
            }
            let unknown = "::std::result::Result::Err(p.error(::std::format_args!(\
                           \"unknown variant `{}`\", __other)))";
            format!(
                "match p.peek()? {{ \
                    b'\"' => {{ \
                        let __v = p.parse_str()?; \
                        match &*__v {{ {unit_arms} __other => {unknown}, }} \
                    }} \
                    b'{{' => {{ \
                        p.begin_object()?; \
                        let ::std::option::Option::Some(__k) = p.next_key()? else {{ \
                            return ::std::result::Result::Err(p.error(\"expected a variant name\")); \
                        }}; \
                        let __out = match &*__k {{ \
                            {tagged_arms} \
                            __other => return {unknown}, \
                        }}; \
                        p.end_object()?; \
                        ::std::result::Result::Ok(__out) \
                    }} \
                    _ => ::std::result::Result::Err(p.error(\"expected an enum (string or object)\")), \
                }}"
            )
        }
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{ \
            fn deserialize(p: &mut ::serde::de::Parser<'de>) -> ::serde::de::Result<Self> {{ {body} }} \
        }}"
    )
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => gen(&item),
        Err(msg) => format!(
            "::std::compile_error!({});",
            lit(&format!("serde derive: {msg}"))
        ),
    };
    code.parse().expect("generated impl is valid Rust")
}

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}
