//! The memory-blade controller's allocation directory.
//!
//! Section 3.4: "a hardware controller on the memory blade handles the
//! blade's management, sending pages to and receiving pages from the
//! processor blades, while enforcing the per-server memory allocation to
//! provide security and fault isolation." This module is that
//! enforcement layer: per-server capacity allocations, ownership checks
//! on every page access, and whole-server revocation (fault isolation —
//! a dead server's pages are reclaimed without touching anyone else's).

use std::fmt;

use wcs_simcore::table::{FastKey, OpenMap};

/// Identifies a server blade attached to the memory blade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ServerId(pub u32);

impl FastKey for ServerId {
    fn fast_hash(&self) -> u64 {
        self.0.fast_hash()
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server{}", self.0)
    }
}

/// Errors the blade controller reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BladeError {
    /// The server has no allocation on this blade.
    UnknownServer(ServerId),
    /// The server tried to exceed its allocation.
    AllocationExceeded {
        /// Who overflowed.
        server: ServerId,
        /// Its allocation limit in pages.
        limit: u64,
    },
    /// The blade itself is out of physical pages.
    BladeFull,
    /// A server touched a page it does not own — an isolation violation.
    IsolationViolation {
        /// The offender.
        server: ServerId,
        /// The page it reached for.
        page: u64,
    },
    /// A server registered twice or an allocation overflows the blade.
    BadRegistration(String),
}

impl fmt::Display for BladeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BladeError::UnknownServer(s) => write!(f, "{s} has no allocation"),
            BladeError::AllocationExceeded { server, limit } => {
                write!(f, "{server} exceeded its {limit}-page allocation")
            }
            BladeError::BladeFull => f.write_str("memory blade has no free pages"),
            BladeError::IsolationViolation { server, page } => {
                write!(f, "{server} touched page {page} it does not own")
            }
            BladeError::BadRegistration(why) => write!(f, "bad registration: {why}"),
        }
    }
}

impl std::error::Error for BladeError {}

struct Allocation {
    limit_pages: u64,
    used_pages: u64,
}

/// The blade's page directory: who owns what, with hard per-server
/// limits.
///
/// # Example
/// ```
/// use wcs_memshare::directory::{BladeDirectory, ServerId};
/// let mut dir = BladeDirectory::new(1000);
/// dir.register(ServerId(0), 600).unwrap();
/// let page = dir.map_page(ServerId(0), 0xABC).unwrap();
/// assert!(dir.check_access(ServerId(0), page).is_ok());
/// ```
pub struct BladeDirectory {
    capacity_pages: u64,
    allocated_pages: u64,
    servers: OpenMap<ServerId, Allocation>,
    // blade physical page -> (owner, server-virtual page)
    owner_of: OpenMap<u64, (ServerId, u64)>,
    // (owner id, server-virtual page) -> blade physical page. Keyed on
    // the raw id so the tuple gets the shared `(u32, u64)` fast hash;
    // OpenMap's deterministic iteration makes revocation (and therefore
    // free-page recycling order) reproducible across runs.
    mapping: OpenMap<(u32, u64), u64>,
    next_phys: u64,
    free: Vec<u64>,
}

impl BladeDirectory {
    /// Creates a blade with `capacity_pages` physical pages.
    ///
    /// # Panics
    /// Panics if the capacity is zero.
    pub fn new(capacity_pages: u64) -> Self {
        assert!(capacity_pages > 0, "blade needs capacity");
        BladeDirectory {
            capacity_pages,
            allocated_pages: 0,
            servers: OpenMap::new(),
            owner_of: OpenMap::new(),
            mapping: OpenMap::new(),
            next_phys: 0,
            free: Vec::new(),
        }
    }

    /// Registers a server with a hard allocation limit.
    ///
    /// # Errors
    /// Fails if the server is already registered or the sum of
    /// allocations would exceed the blade (no overcommit in the paper's
    /// static scheme; use
    /// [`register_overcommitted`](Self::register_overcommitted) for the
    /// dynamic scheme).
    pub fn register(&mut self, server: ServerId, limit_pages: u64) -> Result<(), BladeError> {
        if self.servers.contains_key(&server) {
            return Err(BladeError::BadRegistration(format!(
                "{server} already registered"
            )));
        }
        if self.allocated_pages + limit_pages > self.capacity_pages {
            return Err(BladeError::BadRegistration(format!(
                "allocating {limit_pages} pages would exceed blade capacity"
            )));
        }
        self.allocated_pages += limit_pages;
        self.servers.insert(
            server,
            Allocation {
                limit_pages,
                used_pages: 0,
            },
        );
        Ok(())
    }

    /// Registers a server without reserving its full limit up front —
    /// the dynamic-provisioning mode, where the ensemble statistically
    /// multiplexes the blade. Physical exhaustion then surfaces as
    /// [`BladeError::BladeFull`] at map time.
    ///
    /// # Errors
    /// Fails only on double registration.
    pub fn register_overcommitted(
        &mut self,
        server: ServerId,
        limit_pages: u64,
    ) -> Result<(), BladeError> {
        if self.servers.contains_key(&server) {
            return Err(BladeError::BadRegistration(format!(
                "{server} already registered"
            )));
        }
        self.servers.insert(
            server,
            Allocation {
                limit_pages,
                used_pages: 0,
            },
        );
        Ok(())
    }

    /// Maps a server-virtual page onto a blade physical page, returning
    /// the physical page number.
    ///
    /// # Errors
    /// Fails when the server is unknown, over its limit, or the blade is
    /// physically full.
    pub fn map_page(&mut self, server: ServerId, virt_page: u64) -> Result<u64, BladeError> {
        if let Some(&phys) = self.mapping.get(&(server.0, virt_page)) {
            return Ok(phys); // idempotent re-map
        }
        let alloc = self
            .servers
            .get_mut(&server)
            .ok_or(BladeError::UnknownServer(server))?;
        if alloc.used_pages >= alloc.limit_pages {
            return Err(BladeError::AllocationExceeded {
                server,
                limit: alloc.limit_pages,
            });
        }
        let phys = match self.free.pop() {
            Some(p) => p,
            None => {
                if self.next_phys >= self.capacity_pages {
                    return Err(BladeError::BladeFull);
                }
                let p = self.next_phys;
                self.next_phys += 1;
                p
            }
        };
        alloc.used_pages += 1;
        self.owner_of.insert(phys, (server, virt_page));
        self.mapping.insert((server.0, virt_page), phys);
        Ok(phys)
    }

    /// Verifies that `server` owns blade page `phys` — the check the
    /// controller performs on every DMA.
    ///
    /// # Errors
    /// Fails with [`BladeError::IsolationViolation`] on foreign pages.
    pub fn check_access(&self, server: ServerId, phys: u64) -> Result<(), BladeError> {
        match self.owner_of.get(&phys) {
            Some((owner, _)) if *owner == server => Ok(()),
            _ => Err(BladeError::IsolationViolation { server, page: phys }),
        }
    }

    /// Unmaps one page (the exclusive hierarchy swaps it back to the
    /// server).
    ///
    /// # Errors
    /// Fails if the mapping does not exist.
    pub fn unmap_page(&mut self, server: ServerId, virt_page: u64) -> Result<(), BladeError> {
        let phys =
            self.mapping
                .remove(&(server.0, virt_page))
                .ok_or(BladeError::IsolationViolation {
                    server,
                    page: virt_page,
                })?;
        self.owner_of.remove(&phys);
        self.free.push(phys);
        if let Some(alloc) = self.servers.get_mut(&server) {
            alloc.used_pages -= 1;
        }
        Ok(())
    }

    /// Revokes a server entirely (fault isolation): all its pages are
    /// reclaimed; nobody else is affected. Returns how many pages were
    /// freed.
    pub fn revoke(&mut self, server: ServerId) -> u64 {
        let Some(alloc) = self.servers.remove(&server) else {
            return 0;
        };
        self.allocated_pages = self.allocated_pages.saturating_sub(alloc.limit_pages);
        let doomed: Vec<(u32, u64)> = self
            .mapping
            .keys()
            .filter(|(s, _)| *s == server.0)
            .copied()
            .collect();
        let mut freed = 0;
        for key in doomed {
            if let Some(phys) = self.mapping.remove(&key) {
                self.owner_of.remove(&phys);
                self.free.push(phys);
                freed += 1;
            }
        }
        freed
    }

    /// Pages currently mapped for `server`.
    pub fn used_pages(&self, server: ServerId) -> u64 {
        self.servers.get(&server).map_or(0, |a| a.used_pages)
    }

    /// Physical pages still unmapped.
    pub fn free_pages(&self) -> u64 {
        self.capacity_pages - self.owner_of.len() as u64
    }
}

impl fmt::Debug for BladeDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BladeDirectory")
            .field("capacity_pages", &self.capacity_pages)
            .field("servers", &self.servers.len())
            .field("mapped", &self.owner_of.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_limits_enforced() {
        let mut dir = BladeDirectory::new(100);
        dir.register(ServerId(1), 2).unwrap();
        dir.map_page(ServerId(1), 10).unwrap();
        dir.map_page(ServerId(1), 11).unwrap();
        let err = dir.map_page(ServerId(1), 12).unwrap_err();
        assert!(matches!(err, BladeError::AllocationExceeded { .. }));
    }

    #[test]
    fn isolation_between_servers() {
        let mut dir = BladeDirectory::new(100);
        dir.register(ServerId(1), 10).unwrap();
        dir.register(ServerId(2), 10).unwrap();
        let p1 = dir.map_page(ServerId(1), 0).unwrap();
        assert!(dir.check_access(ServerId(1), p1).is_ok());
        let err = dir.check_access(ServerId(2), p1).unwrap_err();
        assert!(matches!(err, BladeError::IsolationViolation { .. }));
    }

    #[test]
    fn no_overcommit_in_static_mode() {
        let mut dir = BladeDirectory::new(100);
        dir.register(ServerId(1), 60).unwrap();
        let err = dir.register(ServerId(2), 60).unwrap_err();
        assert!(matches!(err, BladeError::BadRegistration(_)));
    }

    #[test]
    fn dynamic_mode_overcommits_until_physically_full() {
        let mut dir = BladeDirectory::new(10);
        dir.register_overcommitted(ServerId(1), 8).unwrap();
        dir.register_overcommitted(ServerId(2), 8).unwrap();
        for v in 0..8 {
            dir.map_page(ServerId(1), v).unwrap();
        }
        dir.map_page(ServerId(2), 0).unwrap();
        dir.map_page(ServerId(2), 1).unwrap();
        let err = dir.map_page(ServerId(2), 2).unwrap_err();
        assert_eq!(err, BladeError::BladeFull);
    }

    #[test]
    fn unmap_recycles_pages() {
        let mut dir = BladeDirectory::new(2);
        dir.register(ServerId(1), 2).unwrap();
        let p = dir.map_page(ServerId(1), 0).unwrap();
        dir.map_page(ServerId(1), 1).unwrap();
        assert_eq!(dir.free_pages(), 0);
        dir.unmap_page(ServerId(1), 0).unwrap();
        assert_eq!(dir.free_pages(), 1);
        let p2 = dir.map_page(ServerId(1), 7).unwrap();
        assert_eq!(p, p2, "freed physical page is reused");
    }

    #[test]
    fn revoke_isolates_faults() {
        let mut dir = BladeDirectory::new(100);
        dir.register(ServerId(1), 10).unwrap();
        dir.register(ServerId(2), 10).unwrap();
        for v in 0..5 {
            dir.map_page(ServerId(1), v).unwrap();
            dir.map_page(ServerId(2), v).unwrap();
        }
        let freed = dir.revoke(ServerId(1));
        assert_eq!(freed, 5);
        // Server 2 is untouched.
        assert_eq!(dir.used_pages(ServerId(2)), 5);
        for v in 0..5 {
            let phys = dir.map_page(ServerId(2), v).unwrap();
            assert!(dir.check_access(ServerId(2), phys).is_ok());
        }
        // Server 1 is gone.
        assert!(matches!(
            dir.map_page(ServerId(1), 0),
            Err(BladeError::UnknownServer(_))
        ));
    }

    #[test]
    fn remap_is_idempotent() {
        let mut dir = BladeDirectory::new(10);
        dir.register(ServerId(3), 4).unwrap();
        let a = dir.map_page(ServerId(3), 42).unwrap();
        let b = dir.map_page(ServerId(3), 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(dir.used_pages(ServerId(3)), 1);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = BladeError::IsolationViolation {
            server: ServerId(7),
            page: 99,
        };
        assert!(e.to_string().contains("server7"));
        assert!(e.to_string().contains("99"));
    }
}
