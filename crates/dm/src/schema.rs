//! The HEDC database schema.
//!
//! §4.1: "The database schema is therefore divided into two parts, a generic
//! and a domain specific (RHESSI related) part." The generic part has three
//! sections — administrative (3 tables), operational (4 tables), location
//! (4 tables) — and is deliberately ignorant of solar physics. The domain
//! part (7 tables) carries the HLE/ANA/catalog model and can be replaced
//! wholesale when the instrument changes, which is the point of the split.

use crate::workflow::{journal_schema, JOURNAL_TABLE};
use hedc_metadb::{ColumnDef, Connection, DataType, DbResult, Schema};

// ---------------------------------------------------------------------------
// Generic part — administrative section (3 tables)
// ---------------------------------------------------------------------------

/// `admin_config`: configuration parameters, schema lineage descriptions,
/// predefined queries, refresh/purging rules — keyed free-form text.
pub fn admin_config() -> Schema {
    Schema::new(
        "admin_config",
        vec![
            ColumnDef::new("key", DataType::Text).not_null(),
            ColumnDef::new("value", DataType::Text).not_null(),
            ColumnDef::new("section", DataType::Text).not_null(),
            ColumnDef::new("description", DataType::Text),
        ],
    )
}

/// `admin_services`: available services (analysis algorithms, IDL servers,
/// web frontends) with type, location, prerequisites, and status.
pub fn admin_services() -> Schema {
    Schema::new(
        "admin_services",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("kind", DataType::Text).not_null(),
            ColumnDef::new("location", DataType::Text).not_null(),
            ColumnDef::new("prerequisites", DataType::Text),
            ColumnDef::new("status", DataType::Text)
                .not_null()
                .default("up"),
        ],
    )
    .primary_key(&["id"])
}

/// `admin_users`: user and group profiles — access rights, session limits,
/// status. Passwords are stored as salted hashes.
pub fn admin_users() -> Schema {
    Schema::new(
        "admin_users",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("name", DataType::Text).not_null(),
            ColumnDef::new("pw_hash", DataType::Int).not_null(),
            ColumnDef::new("grp", DataType::Text)
                .not_null()
                .default("guest"),
            ColumnDef::new("rights", DataType::Int)
                .not_null()
                .default(0),
            ColumnDef::new("status", DataType::Text)
                .not_null()
                .default("active"),
            ColumnDef::new("last_login_ms", DataType::Timestamp),
        ],
    )
    .primary_key(&["id"])
}

// ---------------------------------------------------------------------------
// Generic part — operational section (4 tables)
// ---------------------------------------------------------------------------

/// `op_log`: logs and messages generated during operation.
pub fn op_log() -> Schema {
    Schema::new(
        "op_log",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("ts_ms", DataType::Timestamp).not_null(),
            ColumnDef::new("level", DataType::Text).not_null(),
            ColumnDef::new("component", DataType::Text).not_null(),
            ColumnDef::new("message", DataType::Text).not_null(),
        ],
    )
    .primary_key(&["id"])
}

/// `op_lineage`: lineage of migrated or transformed data — which entity
/// came from which, by what operation, under which calibration.
pub fn op_lineage() -> Schema {
    Schema::new(
        "op_lineage",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("entity_kind", DataType::Text).not_null(),
            ColumnDef::new("entity_id", DataType::Int).not_null(),
            ColumnDef::new("source_kind", DataType::Text),
            ColumnDef::new("source_id", DataType::Int),
            ColumnDef::new("operation", DataType::Text).not_null(),
            ColumnDef::new("calib_version", DataType::Int),
            ColumnDef::new("ts_ms", DataType::Timestamp).not_null(),
        ],
    )
    .primary_key(&["id"])
}

/// `op_archives`: status of archives — online, capacity left, type (§4.1).
pub fn op_archives() -> Schema {
    Schema::new(
        "op_archives",
        vec![
            ColumnDef::new("archive_id", DataType::Int).not_null(),
            ColumnDef::new("name", DataType::Text).not_null(),
            ColumnDef::new("tier", DataType::Text).not_null(),
            ColumnDef::new("state", DataType::Text).not_null(),
            ColumnDef::new("capacity", DataType::Int).not_null(),
            ColumnDef::new("used", DataType::Int).not_null().default(0),
        ],
    )
    .primary_key(&["archive_id"])
}

/// `op_usage`: usage statistics and audit trail.
pub fn op_usage() -> Schema {
    Schema::new(
        "op_usage",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("ts_ms", DataType::Timestamp).not_null(),
            ColumnDef::new("user_id", DataType::Int).not_null(),
            ColumnDef::new("action", DataType::Text).not_null(),
            ColumnDef::new("duration_ms", DataType::Int),
        ],
    )
    .primary_key(&["id"])
}

// ---------------------------------------------------------------------------
// Generic part — location section (4 tables), §4.3
// ---------------------------------------------------------------------------

/// `loc_item`: the item registry. Every tuple in the domain schema that has
/// files attached carries an `item_id` pointing here.
pub fn loc_item() -> Schema {
    Schema::new(
        "loc_item",
        vec![
            ColumnDef::new("item_id", DataType::Int).not_null(),
            ColumnDef::new("created_ms", DataType::Timestamp).not_null(),
        ],
    )
    .primary_key(&["item_id"])
}

/// `loc_entry`: one named resource of an item — name type (`file`, `tuple`,
/// `url`), the archive holding it, the path within that archive, size and
/// checksum. Querying this table by `item_id` is the first of the "two
/// extra database queries" of dynamic name construction.
pub fn loc_entry() -> Schema {
    Schema::new(
        "loc_entry",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("item_id", DataType::Int).not_null(),
            ColumnDef::new("name_type", DataType::Text).not_null(),
            ColumnDef::new("archive_id", DataType::Int).not_null(),
            ColumnDef::new("path", DataType::Text).not_null(),
            ColumnDef::new("size", DataType::Int).not_null().default(0),
            ColumnDef::new("checksum", DataType::Int),
            ColumnDef::new("role", DataType::Text)
                .not_null()
                .default("data"),
        ],
    )
    .primary_key(&["id"])
}

/// `loc_archive`: archive id → archive type and current path prefix; the
/// second indexed query of name construction. Relocating data means
/// updating rows here — never touching domain tuples (§4.3).
pub fn loc_archive() -> Schema {
    Schema::new(
        "loc_archive",
        vec![
            ColumnDef::new("archive_id", DataType::Int).not_null(),
            ColumnDef::new("archive_type", DataType::Text).not_null(),
            ColumnDef::new("path_prefix", DataType::Text)
                .not_null()
                .default(""),
            ColumnDef::new("url_base", DataType::Text),
            ColumnDef::new("online", DataType::Bool)
                .not_null()
                .default(true),
        ],
    )
    .primary_key(&["archive_id"])
}

/// `loc_transform`: optional access transformations per entry (e.g.
/// "download as compressed"); consulted when building URLs.
pub fn loc_transform() -> Schema {
    Schema::new(
        "loc_transform",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("entry_id", DataType::Int).not_null(),
            ColumnDef::new("transform", DataType::Text).not_null(),
        ],
    )
    .primary_key(&["id"])
}

// ---------------------------------------------------------------------------
// Domain-specific part (7 tables), §4.1
// ---------------------------------------------------------------------------

/// `hle`: high-level events — "a period of time and range of energy that
/// has been determined to be relevant by a specific user". The paper quotes
/// ~25 attributes; the scientifically meaningful ones are modeled.
pub fn hle() -> Schema {
    Schema::new(
        "hle",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("owner", DataType::Int).not_null(),
            ColumnDef::new("item_id", DataType::Int),
            ColumnDef::new("time_start", DataType::Timestamp).not_null(),
            ColumnDef::new("time_end", DataType::Timestamp).not_null(),
            ColumnDef::new("energy_lo", DataType::Float)
                .not_null()
                .default(3.0),
            ColumnDef::new("energy_hi", DataType::Float)
                .not_null()
                .default(20000.0),
            ColumnDef::new("event_type", DataType::Text).not_null(),
            ColumnDef::new("flare_class", DataType::Text),
            ColumnDef::new("peak_rate", DataType::Float),
            ColumnDef::new("hardness", DataType::Float),
            ColumnDef::new("n_photons", DataType::Int),
            ColumnDef::new("calib_version", DataType::Int)
                .not_null()
                .default(1),
            ColumnDef::new("version", DataType::Int)
                .not_null()
                .default(1),
            ColumnDef::new("public", DataType::Bool)
                .not_null()
                .default(false),
            ColumnDef::new("title", DataType::Text),
            ColumnDef::new("notes", DataType::Text),
            ColumnDef::new("created_ms", DataType::Timestamp).not_null(),
            ColumnDef::new("source", DataType::Text)
                .not_null()
                .default("user"),
            ColumnDef::new("position_x", DataType::Float),
            ColumnDef::new("position_y", DataType::Float),
            ColumnDef::new("goes_flux", DataType::Float),
            ColumnDef::new("active_region", DataType::Int),
            ColumnDef::new("quality", DataType::Int)
                .not_null()
                .default(0),
            ColumnDef::new("obsolete", DataType::Bool)
                .not_null()
                .default(false),
        ],
    )
    .primary_key(&["id"])
}

/// `ana`: analysis results attached to an HLE. The paper quotes ~45
/// attributes (algorithm parameters, log pointers, timing); modeled here
/// with the load-bearing subset plus the parameter fingerprint used for
/// redundancy detection (§3.5).
pub fn ana() -> Schema {
    Schema::new(
        "ana",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("hle_id", DataType::Int).not_null(),
            ColumnDef::new("owner", DataType::Int).not_null(),
            ColumnDef::new("item_id", DataType::Int),
            ColumnDef::new("kind", DataType::Text).not_null(),
            ColumnDef::new("fingerprint", DataType::Text).not_null(),
            ColumnDef::new("t_start", DataType::Timestamp).not_null(),
            ColumnDef::new("t_end", DataType::Timestamp).not_null(),
            ColumnDef::new("energy_lo", DataType::Float).not_null(),
            ColumnDef::new("energy_hi", DataType::Float).not_null(),
            ColumnDef::new("param_grid", DataType::Float),
            ColumnDef::new("param_bins", DataType::Float),
            ColumnDef::new("param_bin_ms", DataType::Float),
            ColumnDef::new("status", DataType::Text)
                .not_null()
                .default("done"),
            ColumnDef::new("duration_ms", DataType::Int),
            ColumnDef::new("cpu_ms", DataType::Int),
            ColumnDef::new("output_bytes", DataType::Int),
            ColumnDef::new("product_type", DataType::Text),
            ColumnDef::new("calib_version", DataType::Int)
                .not_null()
                .default(1),
            ColumnDef::new("version", DataType::Int)
                .not_null()
                .default(1),
            ColumnDef::new("public", DataType::Bool)
                .not_null()
                .default(false),
            ColumnDef::new("created_ms", DataType::Timestamp).not_null(),
            ColumnDef::new("error", DataType::Text),
            ColumnDef::new("obsolete", DataType::Bool)
                .not_null()
                .default(false),
        ],
    )
    .primary_key(&["id"])
}

/// `catalog`: named groupings of HLEs — the standard catalog, the extended
/// catalog, and private user workspaces (§3.3/§4.1).
pub fn catalog() -> Schema {
    Schema::new(
        "catalog",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("owner", DataType::Int).not_null(),
            ColumnDef::new("name", DataType::Text).not_null(),
            ColumnDef::new("description", DataType::Text),
            ColumnDef::new("kind", DataType::Text)
                .not_null()
                .default("private"),
            ColumnDef::new("public", DataType::Bool)
                .not_null()
                .default(false),
            ColumnDef::new("created_ms", DataType::Timestamp).not_null(),
        ],
    )
    .primary_key(&["id"])
}

/// `catalog_member`: HLE ↔ catalog membership (an HLE can appear in many
/// catalogs).
pub fn catalog_member() -> Schema {
    Schema::new(
        "catalog_member",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("catalog_id", DataType::Int).not_null(),
            ColumnDef::new("hle_id", DataType::Int).not_null(),
        ],
    )
    .primary_key(&["id"])
}

/// `raw_unit`: the registry of raw telemetry units on disk.
pub fn raw_unit() -> Schema {
    Schema::new(
        "raw_unit",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("seq", DataType::Int).not_null(),
            ColumnDef::new("t_start", DataType::Timestamp).not_null(),
            ColumnDef::new("t_end", DataType::Timestamp).not_null(),
            ColumnDef::new("n_photons", DataType::Int).not_null(),
            ColumnDef::new("calib_version", DataType::Int).not_null(),
            ColumnDef::new("item_id", DataType::Int).not_null(),
            ColumnDef::new("size_bytes", DataType::Int).not_null(),
            ColumnDef::new("obsolete", DataType::Bool)
                .not_null()
                .default(false),
        ],
    )
    .primary_key(&["id"])
}

/// `view_meta`: wavelet view registry — which partitioned approximated view
/// covers which time range at which quantization (§3.4/§6.3).
pub fn view_meta() -> Schema {
    Schema::new(
        "view_meta",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("t_start", DataType::Timestamp).not_null(),
            ColumnDef::new("t_end", DataType::Timestamp).not_null(),
            ColumnDef::new("bin_ms", DataType::Int).not_null(),
            ColumnDef::new("partition_len", DataType::Int).not_null(),
            ColumnDef::new("quant_step", DataType::Float).not_null(),
            ColumnDef::new("item_id", DataType::Int).not_null(),
            ColumnDef::new("calib_version", DataType::Int).not_null(),
        ],
    )
    .primary_key(&["id"])
}

/// `version_log`: version history of raw and derived data (§3.1) — which
/// entity moved to which version when, and why (recalibration, correction).
pub fn version_log() -> Schema {
    Schema::new(
        "version_log",
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("entity_kind", DataType::Text).not_null(),
            ColumnDef::new("entity_id", DataType::Int).not_null(),
            ColumnDef::new("version", DataType::Int).not_null(),
            ColumnDef::new("calib_version", DataType::Int),
            ColumnDef::new("reason", DataType::Text).not_null(),
            ColumnDef::new("ts_ms", DataType::Timestamp).not_null(),
        ],
    )
    .primary_key(&["id"])
}

/// Names of the generic tables (administrative + operational + location).
pub const GENERIC_TABLES: [&str; 12] = [
    "admin_config",
    "admin_services",
    "admin_users",
    "op_log",
    "op_lineage",
    "op_archives",
    JOURNAL_TABLE,
    "op_usage",
    "loc_item",
    "loc_entry",
    "loc_archive",
    "loc_transform",
];

/// Names of the domain-specific tables.
pub const DOMAIN_TABLES: [&str; 7] = [
    "hle",
    "ana",
    "catalog",
    "catalog_member",
    "raw_unit",
    "view_meta",
    "version_log",
];

/// Create the generic schema plus its indexes on one database.
pub fn create_generic(conn: &mut Connection) -> DbResult<()> {
    conn.create_table(admin_config())?;
    conn.create_table(admin_services())?;
    conn.create_table(admin_users())?;
    conn.create_table(op_log())?;
    conn.create_table(op_lineage())?;
    conn.create_table(op_archives())?;
    conn.create_table(journal_schema())?;
    conn.create_table(op_usage())?;
    conn.create_table(loc_item())?;
    conn.create_table(loc_entry())?;
    conn.create_table(loc_archive())?;
    conn.create_table(loc_transform())?;
    conn.create_index("admin_users", "users_name", &["name"], true)?;
    conn.create_index("loc_entry", "entry_item", &["item_id"], false)?;
    conn.create_index("loc_transform", "transform_entry", &["entry_id"], false)?;
    conn.create_index("op_lineage", "lineage_entity", &["entity_id"], false)?;
    // One index over the journal's `(kind, key)` pair; `key` leads because
    // the planner probes an index by its first column.
    conn.create_index(JOURNAL_TABLE, "workflow_run", &["key", "kind"], false)?;
    conn.create_index("op_usage", "usage_user", &["user_id"], false)?;
    Ok(())
}

/// Create the RHESSI domain schema plus its indexes on one database.
pub fn create_domain(conn: &mut Connection) -> DbResult<()> {
    conn.create_table(hle())?;
    conn.create_table(ana())?;
    conn.create_table(catalog())?;
    conn.create_table(catalog_member())?;
    conn.create_table(raw_unit())?;
    conn.create_table(view_meta())?;
    conn.create_table(version_log())?;
    conn.create_index("hle", "hle_time", &["time_start"], false)?;
    conn.create_index("hle", "hle_owner", &["owner"], false)?;
    conn.create_index("ana", "ana_hle", &["hle_id"], false)?;
    conn.create_index("ana", "ana_fingerprint", &["fingerprint"], false)?;
    conn.create_index("ana", "ana_owner", &["owner"], false)?;
    conn.create_index("catalog_member", "member_catalog", &["catalog_id"], false)?;
    conn.create_index("catalog_member", "member_hle", &["hle_id"], false)?;
    conn.create_index("raw_unit", "raw_time", &["t_start"], false)?;
    conn.create_index("view_meta", "view_time", &["t_start"], false)?;
    conn.create_index("version_log", "version_entity", &["entity_id"], false)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedc_metadb::Database;

    #[test]
    fn generic_and_domain_create_cleanly() {
        let db = Database::in_memory("schema-test");
        let mut conn = db.connect();
        create_generic(&mut conn).unwrap();
        create_domain(&mut conn).unwrap();
        let names = db.table_names();
        assert_eq!(names.len(), GENERIC_TABLES.len() + DOMAIN_TABLES.len());
        for t in GENERIC_TABLES.iter().chain(DOMAIN_TABLES.iter()) {
            assert!(names.contains(&t.to_string()), "missing {t}");
        }
    }

    #[test]
    fn domain_schema_is_independent_of_generic() {
        // The split's point: the domain part can be created alone on a
        // separate database (the StreamCorder's local clone does this).
        let db = Database::in_memory("domain-only");
        let mut conn = db.connect();
        create_domain(&mut conn).unwrap();
        assert_eq!(db.table_names().len(), DOMAIN_TABLES.len());
    }

    #[test]
    fn hle_has_paper_scale_attribute_count() {
        // ~25 attributes per HLE tuple (§4.1).
        assert!(hle().arity() >= 20, "hle arity {}", hle().arity());
        assert!(ana().arity() >= 20, "ana arity {}", ana().arity());
    }

    #[test]
    fn unique_user_names_enforced() {
        let db = Database::in_memory("users");
        let mut conn = db.connect();
        create_generic(&mut conn).unwrap();
        conn.execute_sql("INSERT INTO admin_users (id, name, pw_hash) VALUES (1, 'etzard', 42)")
            .unwrap();
        let err = conn
            .execute_sql("INSERT INTO admin_users (id, name, pw_hash) VALUES (2, 'etzard', 43)")
            .unwrap_err();
        assert!(matches!(err, hedc_metadb::DbError::UniqueViolation { .. }));
    }
}
