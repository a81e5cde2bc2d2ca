//! Deterministic input generators for the five applications.
//!
//! The UMD suite traced the applications on real inputs (retail baskets,
//! text corpora, dense/sparse matrices, satellite rasters). Those inputs
//! are synthesized here from seeded RNGs so every run — and every CI
//! machine — sees identical bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A retail transaction: a sorted set of distinct item ids.
pub type Transaction = Vec<u16>;

/// Generates `n` transactions over `n_items` items.
///
/// Item popularity is skewed (Zipf-ish by squaring a uniform draw) so
/// frequent itemsets exist — uniform baskets make Apriori's candidate
/// lattice collapse and the benchmark trivial.
pub fn retail_transactions(
    seed: u64,
    n: usize,
    n_items: u16,
    max_basket: usize,
) -> Vec<Transaction> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let k = rng.gen_range(1..=max_basket.max(1));
        let mut basket: Vec<u16> = Vec::with_capacity(k);
        for _ in 0..k {
            let u: f64 = rng.gen();
            let item = ((u * u) * n_items as f64) as u16 % n_items.max(1);
            if !basket.contains(&item) {
                basket.push(item);
            }
        }
        basket.sort_unstable();
        out.push(basket);
    }
    out
}

/// Encodes transactions into the on-file format: per transaction a
/// `u16` count followed by that many `u16` item ids (little-endian).
pub fn encode_transactions(txs: &[Transaction]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in txs {
        out.extend_from_slice(&(t.len() as u16).to_le_bytes());
        for &item in t {
            out.extend_from_slice(&item.to_le_bytes());
        }
    }
    out
}

/// Decodes the transaction file format.
pub fn decode_transactions(data: &[u8]) -> Vec<Transaction> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos + 2 <= data.len() {
        let k = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2;
        let mut t = Vec::with_capacity(k);
        for _ in 0..k {
            if pos + 2 > data.len() {
                return out;
            }
            t.push(u16::from_le_bytes([data[pos], data[pos + 1]]));
            pos += 2;
        }
        out.push(t);
    }
    out
}

/// Generates a text corpus of `bytes` bytes: lowercase words drawn from
/// a small vocabulary with the pattern word planted at a known rate.
pub fn text_corpus(seed: u64, bytes: usize, needle: &str, plant_every: usize) -> Vec<u8> {
    const VOCAB: [&str; 24] = [
        "the",
        "quick",
        "brown",
        "fox",
        "jumps",
        "over",
        "lazy",
        "dog",
        "lorem",
        "ipsum",
        "dolor",
        "sit",
        "amet",
        "consectetur",
        "adipiscing",
        "elit",
        "sed",
        "tempor",
        "incididunt",
        "labore",
        "dolore",
        "magna",
        "aliqua",
        "scatter",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(bytes + 16);
    let mut words = 0usize;
    while out.len() < bytes {
        let w = if plant_every > 0 && words % plant_every == plant_every - 1 {
            needle
        } else {
            VOCAB[rng.gen_range(0..VOCAB.len())]
        };
        out.extend_from_slice(w.as_bytes());
        out.push(b' ');
        words += 1;
    }
    out.truncate(bytes);
    out
}

/// Generates a dense `n × n` matrix (row-major f64) that is well
/// conditioned: random entries in [-1, 1] with `n` added to the
/// diagonal, making it strictly diagonally dominant.
pub fn dense_matrix(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = rng.gen_range(-1.0..1.0);
        }
        a[i * n + i] += n as f64;
    }
    a
}

/// Generates a sparse symmetric positive-definite matrix as the 5-point
/// Laplacian of a `g × g` grid plus a diagonal boost. Returned as
/// column-major lower-triangle triplets `(row, col, value)` with
/// `row ≥ col`, sorted by column then row.
pub fn grid_laplacian(g: usize) -> (usize, Vec<(u32, u32, f64)>) {
    let n = g * g;
    let idx = |r: usize, c: usize| (r * g + c) as u32;
    let mut triplets = Vec::new();
    for r in 0..g {
        for c in 0..g {
            let i = idx(r, c);
            triplets.push((i, i, 4.0 + 1.0)); // diagonal boost for SPD margin
            if r + 1 < g {
                triplets.push((idx(r + 1, c), i, -1.0));
            }
            if c + 1 < g {
                triplets.push((idx(r, c + 1), i, -1.0));
            }
        }
    }
    triplets.sort_by_key(|&(r, c, _)| (c, r));
    (n, triplets)
}

/// Generates a `tiles_x × tiles_y` raster of `tile_w × tile_h` u16
/// samples with smooth spatial structure (so range-query aggregates are
/// non-trivial). Returns tiles in row-major tile order, each tile a
/// row-major sample vector.
pub fn raster_tiles(
    seed: u64,
    tiles_x: usize,
    tiles_y: usize,
    tile_w: usize,
    tile_h: usize,
) -> Vec<Vec<u16>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tiles = Vec::with_capacity(tiles_x * tiles_y);
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            let base = ((tx * 31 + ty * 17) % 997) as u16;
            let mut tile = Vec::with_capacity(tile_w * tile_h);
            for y in 0..tile_h {
                for x in 0..tile_w {
                    let v = base
                        .wrapping_add((x as u16).wrapping_mul(3))
                        .wrapping_add((y as u16).wrapping_mul(5))
                        .wrapping_add(rng.gen_range(0..16));
                    tile.push(v);
                }
            }
            tiles.push(tile);
        }
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transactions_deterministic_and_sorted() {
        let a = retail_transactions(1, 100, 50, 8);
        let b = retail_transactions(1, 100, 50, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        for t in &a {
            assert!(!t.is_empty());
            assert!(t.windows(2).all(|w| w[0] < w[1]), "sorted distinct items");
            assert!(t.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn transaction_codec_round_trip() {
        let txs = retail_transactions(7, 50, 30, 6);
        let data = encode_transactions(&txs);
        assert_eq!(decode_transactions(&data), txs);
    }

    #[test]
    fn transaction_codec_empty() {
        assert!(decode_transactions(&[]).is_empty());
        assert!(encode_transactions(&[]).is_empty());
    }

    #[test]
    fn corpus_has_planted_needles() {
        let corpus = text_corpus(3, 10_000, "zebra", 20);
        let text = String::from_utf8_lossy(&corpus);
        assert!(text.matches("zebra").count() >= 10);
        assert_eq!(corpus.len(), 10_000);
    }

    #[test]
    fn corpus_without_planting() {
        let corpus = text_corpus(3, 1000, "zebra", 0);
        assert!(!String::from_utf8_lossy(&corpus).contains("zebra"));
    }

    #[test]
    fn dense_matrix_diagonally_dominant() {
        let n = 16;
        let a = dense_matrix(5, n);
        for i in 0..n {
            let diag = a[i * n + i].abs();
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| a[i * n + j].abs()).sum();
            assert!(diag > off, "row {i}: {diag} <= {off}");
        }
    }

    #[test]
    fn laplacian_is_lower_sorted() {
        let (n, t) = grid_laplacian(4);
        assert_eq!(n, 16);
        for &(r, c, _) in &t {
            assert!(r >= c, "lower triangle only");
        }
        assert!(t.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
        // Each node has a diagonal entry.
        let diag_count = t.iter().filter(|&&(r, c, _)| r == c).count();
        assert_eq!(diag_count, 16);
    }

    #[test]
    fn raster_shape() {
        let tiles = raster_tiles(9, 3, 2, 8, 8);
        assert_eq!(tiles.len(), 6);
        assert!(tiles.iter().all(|t| t.len() == 64));
        let again = raster_tiles(9, 3, 2, 8, 8);
        assert_eq!(tiles, again);
    }
}
