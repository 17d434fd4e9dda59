//! The coordinator's recovery frames: the encoded broadcasts a replacement
//! worker is caught up from.
//!
//! Every barrier broadcast — `Globals`, `Plan`, each merged replication
//! chunk — is encoded once, sent to every shard, and needed again only if
//! a worker dies and its shard is re-issued. So each frame is written once,
//! with one checksum, to an unlinked spill file in the temp directory (made
//! by [`tps_io::create_spill`], so nothing is left there however the
//! process ends) and read back only for a catch-up: between barriers the
//! coordinator holds an offset, a length and a checksum per frame, and the
//! frame of the barrier in progress. Where no spill file can be created or
//! written (an unwritable `$TMPDIR`, a full disk), the frames from there on
//! stay in memory instead; the output is the same either way. A frame that
//! reads back changed or cut short is `InvalidData` naming it.

use std::borrow::Cow;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

use tps_io::page_checksum;

use crate::wire::corrupt;

/// Bytes of recovery frames written to the coordinator's spill file.
static DIST_RECOVERY_SPILLED_BYTES: tps_obs::Counter =
    tps_obs::Counter::new("dist.recovery.spilled_bytes");

/// Where one frame is kept.
enum Slot {
    /// In the spill file at `at`, `len` bytes whose checksum is `sum`.
    Spilled { at: u64, len: usize, sum: u64 },
    /// In memory: the spill file could not take it.
    Memory(Vec<u8>),
}

/// The recovery frames of one job, in the order they were stored.
pub(crate) struct RecoveryFrames {
    dir: PathBuf,
    /// The spill file, created with the first frame. It stays open once
    /// made: the frames already in it are read back from it.
    file: Option<File>,
    /// Whether frames still go to the file: cleared for good when it
    /// cannot be created or a write to it fails.
    spilling: bool,
    /// One slot and the name its errors give, per frame.
    frames: Vec<(Slot, String)>,
    /// The spill file's length: where the next frame goes.
    end: u64,
    /// The latest frame, while its barrier broadcasts it.
    live: Option<Vec<u8>>,
}

impl RecoveryFrames {
    /// An empty store whose spill file, once a frame needs it, is created
    /// in `dir`.
    pub(crate) fn new(dir: PathBuf) -> RecoveryFrames {
        RecoveryFrames {
            dir,
            file: None,
            spilling: true,
            frames: Vec::new(),
            end: 0,
            live: None,
        }
    }

    /// Store `frame`, named `name` in errors, as frame number
    /// [`len`](Self::len) before the call. It stays in memory as the
    /// barrier's broadcast until [`settle`](Self::settle).
    pub(crate) fn push(&mut self, name: String, frame: Vec<u8>) {
        let at = self.end;
        if self.spilling && self.file.is_none() {
            self.file = tps_io::create_spill(&self.dir).ok();
        }
        let written = self.spilling
            && self
                .file
                .as_ref()
                .is_some_and(|file| file.write_all_at(&frame, at).is_ok());
        let slot = if written {
            self.end += frame.len() as u64;
            DIST_RECOVERY_SPILLED_BYTES.add(frame.len() as u64);
            let slot = Slot::Spilled {
                at,
                len: frame.len(),
                sum: page_checksum(&frame),
            };
            self.live = Some(frame);
            slot
        } else {
            // From the first failure on, nothing more goes to the file;
            // what is in it already still reads back.
            self.spilling = false;
            self.live = None;
            Slot::Memory(frame)
        };
        self.frames.push((slot, name));
    }

    /// The latest frame's barrier is over: from now on it is read back
    /// from the spill file, if it is there.
    pub(crate) fn settle(&mut self) {
        self.live = None;
    }

    /// Frames stored so far.
    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    /// Frame `i`: borrowed while in memory, else read back from the spill
    /// and checked against its checksum.
    pub(crate) fn get(&self, i: usize) -> io::Result<Cow<'_, [u8]>> {
        // `live` is only ever the latest frame, and only a spilled one.
        if let (true, Some(live)) = (i + 1 == self.frames.len(), &self.live) {
            return Ok(Cow::Borrowed(live));
        }
        let (slot, name) = &self.frames[i];
        let (at, len, sum) = match slot {
            Slot::Memory(frame) => return Ok(Cow::Borrowed(frame)),
            &Slot::Spilled { at, len, sum } => (at, len, sum),
        };
        let file = self
            .file
            .as_ref()
            .expect("a spilled frame's file stays open");
        let mut frame = vec![0u8; len];
        file.read_exact_at(&mut frame, at).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                corrupt(format!(
                    "recovery frame {name}: the coordinator's spill file is cut short"
                ))
            } else {
                io::Error::new(
                    e.kind(),
                    format!("recovery frame {name}: reading the coordinator's spill file: {e}"),
                )
            }
        })?;
        if page_checksum(&frame) != sum {
            return Err(corrupt(format!(
                "recovery frame {name}: checksum mismatch in the coordinator's spill file"
            )));
        }
        Ok(Cow::Owned(frame))
    }

    /// Whether frame `i` is in the spill file (tests).
    #[cfg(test)]
    fn spilled(&self, i: usize) -> bool {
        matches!(self.frames[i].0, Slot::Spilled { .. })
    }

    /// The spill file (tests damage it).
    #[cfg(test)]
    pub(crate) fn spill_file(&self) -> &File {
        self.file.as_ref().expect("no spill file")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..1000 + i).map(|b| (b * 7 + i) as u8).collect())
            .collect()
    }

    fn store(dir: PathBuf, frames: &[Vec<u8>]) -> RecoveryFrames {
        let mut store = RecoveryFrames::new(dir);
        for (i, f) in frames.iter().enumerate() {
            store.push(format!("F{i}"), f.clone());
            // The live frame is the one just pushed.
            assert_eq!(&*store.get(i).unwrap(), &f[..]);
            store.settle();
        }
        store
    }

    #[test]
    fn frames_spill_once_and_read_back_exactly() {
        let fs = frames(4);
        let store = store(std::env::temp_dir(), &fs);
        assert_eq!(store.len(), 4);
        for (i, f) in fs.iter().enumerate() {
            assert!(store.spilled(i));
            assert!(matches!(store.get(i).unwrap(), Cow::Owned(_)));
            assert_eq!(&*store.get(i).unwrap(), &f[..]);
        }
        let total: usize = fs.iter().map(Vec::len).sum();
        assert_eq!(
            store.spill_file().metadata().unwrap().len(),
            total as u64,
            "each frame is written once"
        );
    }

    /// A flipped byte fails the read of that frame, and only that frame,
    /// with `InvalidData` naming it; a cut-short file fails the frames past
    /// the cut. Nothing panics.
    #[test]
    fn a_damaged_spill_names_the_frame() {
        let fs = frames(3);
        let store = store(std::env::temp_dir(), &fs);
        let at = fs[0].len() as u64 + 17;
        let mut byte = [0u8];
        store.spill_file().read_exact_at(&mut byte, at).unwrap();
        store
            .spill_file()
            .write_all_at(&[byte[0] ^ 0x04], at)
            .unwrap();
        let err = store.get(1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("recovery frame F1"), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(&*store.get(0).unwrap(), &fs[0][..]);
        assert_eq!(&*store.get(2).unwrap(), &fs[2][..]);

        store.spill_file().set_len(at + 100).unwrap();
        let err = store.get(2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("recovery frame F2"), "{err}");
        assert!(err.to_string().contains("cut short"), "{err}");
    }

    /// A write that fails (here: the file swapped for a read-only handle
    /// of the same inode) keeps that frame and every later one in memory,
    /// while the frames already spilled still read back from the file.
    #[test]
    fn a_failed_write_keeps_the_rest_in_memory() {
        use std::os::fd::AsRawFd;
        let fs = frames(4);
        let mut store = store(std::env::temp_dir(), &fs[..2]);
        let fd = store.spill_file().as_raw_fd();
        store.file = Some(File::open(format!("/proc/self/fd/{fd}")).unwrap());
        for (i, f) in fs.iter().enumerate().skip(2) {
            store.push(format!("F{i}"), f.clone());
            store.settle();
        }
        for (i, f) in fs.iter().enumerate() {
            assert_eq!(store.spilled(i), i < 2, "frame {i}");
            assert_eq!(&*store.get(i).unwrap(), &f[..], "frame {i}");
        }
    }

    /// Below a regular file no spill can be made: every frame stays in
    /// memory and reads back unchanged.
    #[test]
    fn an_unwritable_dir_keeps_the_frames_in_memory() {
        let file = std::env::temp_dir().join(format!("tps-recovery-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let fs = frames(3);
        let store = store(file.join("spill"), &fs);
        for (i, f) in fs.iter().enumerate() {
            assert!(!store.spilled(i));
            assert_eq!(&*store.get(i).unwrap(), &f[..]);
        }
        std::fs::remove_file(&file).ok();
    }
}
