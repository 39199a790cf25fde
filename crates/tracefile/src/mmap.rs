//! A minimal read-only `mmap(2)` wrapper — the only OS-specific corner
//! of the trace-file layer.
//!
//! The repo takes no external dependencies, so like
//! `crates/server/src/poller.rs` (DESIGN.md §8 lists every `unsafe`
//! site) this module declares the three syscall entry points it needs
//! directly; std already links the C library, so the symbols resolve
//! with nothing added. All `unsafe` in `pc-tracefile` lives here,
//! behind one safe type: [`Mapping`], an immutable private file mapping
//! that derefs to `&[u8]` and unmaps on drop.
//!
//! On non-Linux hosts the module compiles to a fallback that reads the
//! file into a heap buffer behind the same API — callers see identical
//! semantics, just without the zero-copy win.

#[cfg(target_os = "linux")]
pub(crate) use imp::Mapping;

#[cfg(not(target_os = "linux"))]
pub(crate) use fallback::Mapping;

#[cfg(target_os = "linux")]
mod imp {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_long, c_void};
    use std::path::Path;

    // Protection and mapping flags (asm-generic values, all Linux arches).
    const PROT_READ: c_int = 0x1;
    const MAP_PRIVATE: c_int = 0x2;
    const MADV_SEQUENTIAL: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> c_int;
        fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }

    /// A read-only, private memory mapping of a whole file.
    ///
    /// The mapping is immutable (`PROT_READ`) and private (`MAP_PRIVATE`),
    /// so concurrent readers never observe each other and the kernel
    /// pages bytes in on demand — opening a multi-gigabyte trace costs
    /// three syscalls, not a read of the file.
    #[derive(Debug)]
    pub(crate) struct Mapping {
        /// Base address, null only for the zero-length special case
        /// (`mmap` rejects empty ranges, so an empty file maps to an
        /// empty slice with no kernel object behind it).
        addr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is read-only and private; the aliased bytes
    // never change for the lifetime of the object, so shared access
    // from any thread is sound.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps `path` read-only in its entirety.
        pub(crate) fn open(path: &Path) -> io::Result<Mapping> {
            let file = File::open(path)?;
            let len = usize::try_from(file.metadata()?.len())
                .map_err(|_| io::Error::other("trace file exceeds the address space"))?;
            if len == 0 {
                return Ok(Mapping {
                    addr: std::ptr::null_mut(),
                    len: 0,
                });
            }
            let addr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if addr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            // Replay walks the file front to back; tell the kernel so it
            // reads ahead aggressively. Purely advisory — ignore failure.
            unsafe { madvise(addr, len, MADV_SEQUENTIAL) };
            Ok(Mapping { addr, len })
        }

        /// The mapped bytes.
        pub(crate) fn as_bytes(&self) -> &[u8] {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: `addr..addr+len` is exactly the live mapping
            // established in `open`, readable and immutable until drop.
            unsafe { std::slice::from_raw_parts(self.addr.cast::<u8>(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            if self.len != 0 {
                // SAFETY: unmaps exactly the range `open` mapped, once.
                unsafe { munmap(self.addr, self.len) };
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod fallback {
    use std::io;
    use std::path::Path;

    /// Portable stand-in for the Linux mapping: the whole file read into
    /// a heap buffer. Same API, no zero-copy win.
    #[derive(Debug)]
    pub(crate) struct Mapping {
        bytes: Vec<u8>,
    }

    impl Mapping {
        /// Reads `path` in its entirety.
        pub(crate) fn open(path: &Path) -> io::Result<Mapping> {
            Ok(Mapping {
                bytes: std::fs::read(path)?,
            })
        }

        /// The file's bytes.
        pub(crate) fn as_bytes(&self) -> &[u8] {
            &self.bytes
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::Mapping;

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pc-mmap-{tag}-{}.bin", std::process::id()))
    }

    #[test]
    fn maps_file_contents_byte_for_byte() {
        let path = temp("roundtrip");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = Mapping::open(&path).unwrap();
        assert_eq!(map.as_bytes(), payload.as_slice());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp("empty");
        std::fs::write(&path, b"").unwrap();
        let map = Mapping::open(&path).unwrap();
        assert!(map.as_bytes().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        assert!(Mapping::open(temp("does-not-exist").as_path()).is_err());
    }
}
