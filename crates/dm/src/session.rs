//! Users, rights, authentication, and session caching (§5.3, §5.5).
//!
//! "Each request to the DM contains user authentication to retrieve the
//! associated user profile"; sessions cache profile + context so that
//! "every client must authenticate itself only once (authentication
//! requires one DBMS query and one update)" (§7.2). "The DM caches up to
//! three sessions per user (one for analysis, HLEs, and catalogues each).
//! The cache lookup algorithm uses the network IP and cookies to match
//! clients with their sessions."

use crate::error::{DmError, DmResult};
use crate::io::DmIo;
use hedc_metadb::{Expr, Query, Statement, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Access rights, a bit set (§5.5: browse < download/analyze/upload < admin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rights(pub u32);

impl Rights {
    /// May browse public data.
    pub const BROWSE: Rights = Rights(1);
    /// May download data files.
    pub const DOWNLOAD: Rights = Rights(2);
    /// May run analyses on the server.
    pub const ANALYZE: Rights = Rights(4);
    /// May upload derived data.
    pub const UPLOAD: Rights = Rights(8);
    /// Sees and edits everything (the §6.1 "super-user").
    pub const ADMIN: Rights = Rights(16);

    /// The anonymous profile: browse only (§5.5: "non authorized users may
    /// only browse public data").
    pub const GUEST: Rights = Rights(1);
    /// A normal scientist account.
    pub const SCIENTIST: Rights = Rights(1 | 2 | 4 | 8);

    /// Whether all bits of `needed` are present.
    pub fn allows(self, needed: Rights) -> bool {
        self.0 & needed.0 == needed.0
    }

    /// Union.
    pub fn with(self, other: Rights) -> Rights {
        Rights(self.0 | other.0)
    }
}

/// Session context kind — the three per-user cached sessions of §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionKind {
    /// Working with analyses.
    Analysis,
    /// Working with HLEs.
    Hle,
    /// Working with catalogs.
    Catalog,
}

/// An authenticated session.
#[derive(Debug, Clone)]
pub struct Session {
    /// User id (0 = anonymous).
    pub user_id: i64,
    /// User name.
    pub user_name: String,
    /// Effective rights.
    pub rights: Rights,
    /// Client IP (cache key component).
    pub ip: String,
    /// Session cookie (cache key component).
    pub cookie: u64,
    /// Context kind.
    pub kind: SessionKind,
    /// Creation time, mission ms.
    pub created_ms: u64,
}

impl Session {
    /// An anonymous browse-only session (no DB round trip).
    pub fn anonymous(ip: &str) -> Arc<Session> {
        Arc::new(Session {
            user_id: 0,
            user_name: "anonymous".to_string(),
            rights: Rights::GUEST,
            ip: ip.to_string(),
            cookie: 0,
            kind: SessionKind::Hle,
            created_ms: 0,
        })
    }

    /// Require a right, with a typed error naming it.
    pub fn require(&self, needed: Rights, label: &'static str) -> DmResult<()> {
        if self.rights.allows(needed) {
            Ok(())
        } else {
            Err(DmError::AccessDenied {
                user: self.user_name.clone(),
                needed: label,
            })
        }
    }

    /// Whether this session sees private data of others (§6.1 super-user).
    pub fn is_admin(&self) -> bool {
        self.rights.allows(Rights::ADMIN)
    }

    /// The access-scope tag for result caching. Scoping (§5.5) rewrites a
    /// non-admin query per-user, so cache entries are keyed per user;
    /// admins all see unscoped rows and share one tag. Two tags never
    /// share a cache entry.
    pub fn scope_tag(&self) -> String {
        if self.is_admin() {
            "admin".to_string()
        } else {
            format!("u{}", self.user_id)
        }
    }
}

/// Iterated FNV-1a with salt. Deliberately simple — the evaluation depends
/// on authentication *cost structure* (one query + one update), not on
/// resisting 2026 GPUs; a real deployment would swap in argon2.
pub fn password_hash(name: &str, password: &str) -> i64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for _ in 0..1000 {
        for b in name
            .bytes()
            .chain(b"::".iter().copied())
            .chain(password.bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h as i64
}

/// The session cache: up to three live sessions per user, keyed by
/// (ip, cookie, kind).
pub struct SessionManager {
    cache: Mutex<HashMap<(String, u64, SessionKind), Arc<Session>>>,
    next_cookie: Mutex<u64>,
}

impl Default for SessionManager {
    fn default() -> Self {
        SessionManager {
            cache: Mutex::new(HashMap::new()),
            next_cookie: Mutex::new(1),
        }
    }
}

impl SessionManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Authenticate against `admin_users`: one SELECT on the unique name
    /// index plus one UPDATE of `last_login_ms` (the §7.2 cost), then create
    /// the user's three cached sessions. Returns the cookie.
    pub fn authenticate(&self, io: &DmIo, name: &str, password: &str, ip: &str) -> DmResult<u64> {
        let r = io.query(&Query::table("admin_users").filter(Expr::eq("name", name)))?;
        let row = r
            .rows
            .first()
            .ok_or_else(|| DmError::AuthFailed(name.to_string()))?;
        let stored = row[2].as_int().unwrap_or(0);
        if stored != password_hash(name, password) {
            return Err(DmError::AuthFailed(name.to_string()));
        }
        let status = row[5].as_text().unwrap_or("");
        if status != "active" {
            return Err(DmError::AuthFailed(format!("{name} ({status})")));
        }
        let user_id = row[0].as_int().expect("user id");
        let rights = Rights(row[4].as_int().unwrap_or(0) as u32);
        let now = io.clock.now_ms();
        io.execute(Statement::Update {
            table: "admin_users".into(),
            sets: vec![(
                "last_login_ms".into(),
                Expr::Literal(Value::Int(now as i64)),
            )],
            filter: Some(Expr::eq("id", user_id)),
        })?;

        let cookie = {
            // Unguessable token: a sequential counter would let one user
            // hijack another's session by incrementing their own cookie.
            let mut c = self.next_cookie.lock();
            *c += 1;
            // NOTE: never mix secret material (e.g. the password hash)
            // into the token — cookies are client-visible.
            let mut h: u64 = 0xcbf29ce484222325 ^ *c;
            for b in name.bytes().chain(ip.bytes()).chain(now.to_le_bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001b3);
            }
            h | 1 // never 0 (anonymous sentinel)
        };
        let mut cache = self.cache.lock();
        // Evict this user's previous sessions (the 3-per-user cap).
        cache.retain(|_, s| s.user_id != user_id);
        for kind in [
            SessionKind::Analysis,
            SessionKind::Hle,
            SessionKind::Catalog,
        ] {
            cache.insert(
                (ip.to_string(), cookie, kind),
                Arc::new(Session {
                    user_id,
                    user_name: name.to_string(),
                    rights,
                    ip: ip.to_string(),
                    cookie,
                    kind,
                    created_ms: now,
                }),
            );
        }
        Ok(cookie)
    }

    /// Cache lookup by (ip, cookie, kind) — no DB round trip (§5.3).
    pub fn lookup(&self, ip: &str, cookie: u64, kind: SessionKind) -> DmResult<Arc<Session>> {
        self.cache
            .lock()
            .get(&(ip.to_string(), cookie, kind))
            .cloned()
            .ok_or(DmError::NoSession)
    }

    /// Drop a user's sessions (logout).
    pub fn invalidate(&self, cookie: u64) {
        self.cache.lock().retain(|_, s| s.cookie != cookie);
    }

    /// Live session count (monitoring).
    pub fn live_sessions(&self) -> usize {
        self.cache.lock().len()
    }
}

/// Create a user row. Admin-side helper used by bootstrap and tests.
pub fn create_user(
    io: &DmIo,
    name: &str,
    password: &str,
    group: &str,
    rights: Rights,
) -> DmResult<i64> {
    let id = io.next_id();
    io.insert(
        "admin_users",
        vec![
            Value::Int(id),
            Value::Text(name.to_string()),
            Value::Int(password_hash(name, password)),
            Value::Text(group.to_string()),
            Value::Int(i64::from(rights.0)),
            Value::Text("active".to_string()),
            Value::Null,
        ],
    )?;
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io() -> DmIo {
        crate::testkit::catalog_node("session-test", 0)
    }

    #[test]
    fn rights_algebra() {
        let r = Rights::SCIENTIST;
        assert!(r.allows(Rights::BROWSE));
        assert!(r.allows(Rights::ANALYZE));
        assert!(!r.allows(Rights::ADMIN));
        assert!(Rights::GUEST.with(Rights::ADMIN).allows(Rights::ADMIN));
    }

    #[test]
    fn password_hash_depends_on_both_inputs() {
        assert_ne!(password_hash("a", "pw"), password_hash("b", "pw"));
        assert_ne!(password_hash("a", "pw"), password_hash("a", "pw2"));
        assert_eq!(password_hash("a", "pw"), password_hash("a", "pw"));
    }

    #[test]
    fn authenticate_creates_three_sessions() {
        let io = io();
        create_user(&io, "pascal", "secret", "science", Rights::SCIENTIST).unwrap();
        let mgr = SessionManager::new();
        let before = io.db_for("admin_users").stats();
        let cookie = mgr
            .authenticate(&io, "pascal", "secret", "10.0.0.1")
            .unwrap();
        let delta = io.db_for("admin_users").stats().since(&before);
        assert_eq!(delta.queries, 1, "one SELECT");
        assert_eq!(delta.edits, 1, "one UPDATE");
        assert_eq!(mgr.live_sessions(), 3);
        for kind in [
            SessionKind::Analysis,
            SessionKind::Hle,
            SessionKind::Catalog,
        ] {
            let s = mgr.lookup("10.0.0.1", cookie, kind).unwrap();
            assert_eq!(s.user_name, "pascal");
            assert!(s.rights.allows(Rights::UPLOAD));
        }
        // Wrong ip or cookie misses the cache.
        assert!(mgr.lookup("10.0.0.2", cookie, SessionKind::Hle).is_err());
        assert!(mgr
            .lookup("10.0.0.1", cookie + 1, SessionKind::Hle)
            .is_err());
    }

    #[test]
    fn bad_password_and_unknown_user_fail() {
        let io = io();
        create_user(&io, "u", "right", "g", Rights::GUEST).unwrap();
        let mgr = SessionManager::new();
        assert!(matches!(
            mgr.authenticate(&io, "u", "wrong", "ip"),
            Err(DmError::AuthFailed(_))
        ));
        assert!(matches!(
            mgr.authenticate(&io, "ghost", "x", "ip"),
            Err(DmError::AuthFailed(_))
        ));
    }

    #[test]
    fn disabled_user_rejected() {
        let io = io();
        create_user(&io, "old", "pw", "g", Rights::GUEST).unwrap();
        io.execute(Statement::Update {
            table: "admin_users".into(),
            sets: vec![(
                "status".into(),
                Expr::Literal(Value::Text("disabled".into())),
            )],
            filter: Some(Expr::eq("name", "old")),
        })
        .unwrap();
        let mgr = SessionManager::new();
        assert!(mgr.authenticate(&io, "old", "pw", "ip").is_err());
    }

    #[test]
    fn reauthentication_evicts_old_sessions() {
        let io = io();
        create_user(&io, "u", "pw", "g", Rights::SCIENTIST).unwrap();
        let mgr = SessionManager::new();
        let c1 = mgr.authenticate(&io, "u", "pw", "ip1").unwrap();
        let c2 = mgr.authenticate(&io, "u", "pw", "ip2").unwrap();
        assert_eq!(mgr.live_sessions(), 3, "old three evicted, new three live");
        assert!(mgr.lookup("ip1", c1, SessionKind::Hle).is_err());
        assert!(mgr.lookup("ip2", c2, SessionKind::Hle).is_ok());
    }

    #[test]
    fn logout_invalidates() {
        let io = io();
        create_user(&io, "u", "pw", "g", Rights::GUEST).unwrap();
        let mgr = SessionManager::new();
        let c = mgr.authenticate(&io, "u", "pw", "ip").unwrap();
        mgr.invalidate(c);
        assert_eq!(mgr.live_sessions(), 0);
        assert!(matches!(
            mgr.lookup("ip", c, SessionKind::Hle),
            Err(DmError::NoSession)
        ));
    }

    #[test]
    fn anonymous_session_browse_only() {
        let s = Session::anonymous("1.2.3.4");
        assert!(s.require(Rights::BROWSE, "browse").is_ok());
        assert!(matches!(
            s.require(Rights::ANALYZE, "analyze"),
            Err(DmError::AccessDenied { .. })
        ));
    }
}
