//! Procedural sprites: the object vocabulary of the synthetic dataset.
//!
//! Each [`SpriteKind`] is one "class" for the classification and detection
//! tasks. Shapes are chosen to be distinguishable by small CNNs yet share
//! enough low-level structure (edges, corners, curves) that the networks must
//! actually learn features rather than trivial pixel statistics.

use eva2_tensor::GrayImage;

/// The set of renderable object classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpriteKind {
    /// Filled square.
    Square,
    /// Filled disc.
    Disc,
    /// Plus/cross shape.
    Cross,
    /// Hollow ring.
    Ring,
    /// Filled triangle (apex up).
    Triangle,
    /// Two vertical bars.
    Bars,
    /// Hollow square frame.
    Frame,
    /// Diagonal stripe pattern inside a square.
    Stripes,
}

impl SpriteKind {
    /// Number of distinct sprite classes.
    pub const COUNT: usize = 8;

    /// All sprite kinds, indexable by class id.
    pub const ALL: [SpriteKind; Self::COUNT] = [
        SpriteKind::Square,
        SpriteKind::Disc,
        SpriteKind::Cross,
        SpriteKind::Ring,
        SpriteKind::Triangle,
        SpriteKind::Bars,
        SpriteKind::Frame,
        SpriteKind::Stripes,
    ];

    /// The class id (index into [`SpriteKind::ALL`]).
    pub fn class_id(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("in ALL")
    }

    /// Sprite for a class id, wrapping modulo [`SpriteKind::COUNT`].
    pub fn from_class_id(id: usize) -> Self {
        Self::ALL[id % Self::COUNT]
    }

    /// Coverage test: is the point `(v, u)` (normalized to `[-1, 1]` within
    /// the sprite's bounding box) inside the shape?
    ///
    /// Analytic coverage lets sprites render at any size and any fractional
    /// position, which is what produces sub-stride (condition 2 violating)
    /// motion in the video generator.
    pub fn covers(self, v: f32, u: f32) -> bool {
        let av = v.abs();
        let au = u.abs();
        match self {
            SpriteKind::Square => av <= 0.9 && au <= 0.9,
            SpriteKind::Disc => v * v + u * u <= 0.81,
            SpriteKind::Cross => (au <= 0.3 && av <= 0.9) || (av <= 0.3 && au <= 0.9),
            SpriteKind::Ring => {
                let r2 = v * v + u * u;
                (0.36..=0.81).contains(&r2)
            }
            SpriteKind::Triangle => {
                // Apex at (v=-0.9); base along v=+0.9.
                (-0.9..=0.9).contains(&v) && au <= (v + 0.9) / 2.0
            }
            SpriteKind::Bars => {
                av <= 0.9 && ((-0.8..=-0.3).contains(&u) || (0.3..=0.8).contains(&u))
            }
            SpriteKind::Frame => {
                let inside = av <= 0.9 && au <= 0.9;
                let hollow = av <= 0.5 && au <= 0.5;
                inside && !hollow
            }
            SpriteKind::Stripes => av <= 0.9 && au <= 0.9 && ((v + u) * 2.5).rem_euclid(2.0) < 1.0,
        }
    }

    /// Renders the sprite into `img` centred at `(cy, cx)` with the given
    /// `size` (bounding-box side length in pixels) and `intensity`.
    ///
    /// Pixels are *blended by coverage supersampling* (2×2) so that
    /// fractional positions shift the rendered mass smoothly — a requirement
    /// for meaningful sub-pixel motion estimation tests.
    pub fn render(self, img: &mut GrayImage, cy: f32, cx: f32, size: f32, intensity: u8) {
        let half = size / 2.0;
        let y0 = (cy - half).floor().max(0.0) as usize;
        let x0 = (cx - half).floor().max(0.0) as usize;
        let y1 = ((cy + half).ceil() as usize).min(img.height());
        let x1 = ((cx + half).ceil() as usize).min(img.width());
        const SUB: [f32; 2] = [0.25, 0.75];
        for y in y0..y1 {
            for x in x0..x1 {
                let mut cover = 0u32;
                for sy in SUB {
                    for sx in SUB {
                        let v = (y as f32 + sy - cy) / half;
                        let u = (x as f32 + sx - cx) / half;
                        if self.covers(v, u) {
                            cover += 1;
                        }
                    }
                }
                if cover > 0 {
                    let base = img.get(y, x) as u32;
                    let blended = (base * (4 - cover) + intensity as u32 * cover) / 4;
                    img.set(y, x, blended as u8);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_id_roundtrip() {
        for (i, &k) in SpriteKind::ALL.iter().enumerate() {
            assert_eq!(k.class_id(), i);
            assert_eq!(SpriteKind::from_class_id(i), k);
        }
        assert_eq!(
            SpriteKind::from_class_id(SpriteKind::COUNT + 1),
            SpriteKind::ALL[1]
        );
    }

    #[test]
    fn all_shapes_cover_center_or_known_point() {
        // Every sprite covers at least one canonical point.
        assert!(SpriteKind::Square.covers(0.0, 0.0));
        assert!(SpriteKind::Disc.covers(0.0, 0.0));
        assert!(SpriteKind::Cross.covers(0.0, 0.0));
        assert!(SpriteKind::Ring.covers(0.7, 0.0));
        assert!(SpriteKind::Triangle.covers(0.5, 0.0));
        assert!(SpriteKind::Bars.covers(0.0, 0.5));
        assert!(SpriteKind::Frame.covers(0.8, 0.0));
        assert!(SpriteKind::Stripes.covers(0.1, 0.1));
    }

    #[test]
    fn shapes_do_not_cover_outside_unit_box() {
        for k in SpriteKind::ALL {
            assert!(!k.covers(1.5, 0.0), "{k:?} leaked outside");
            assert!(!k.covers(0.0, -1.5), "{k:?} leaked outside");
        }
    }

    #[test]
    fn ring_is_hollow() {
        assert!(!SpriteKind::Ring.covers(0.0, 0.0));
        assert!(!SpriteKind::Frame.covers(0.0, 0.0));
    }

    #[test]
    fn shapes_are_pairwise_distinct() {
        // Sample a coarse grid; every pair of shapes must differ somewhere.
        let grid: Vec<(f32, f32)> = (-9..=9)
            .flat_map(|v| (-9..=9).map(move |u| (v as f32 / 10.0, u as f32 / 10.0)))
            .collect();
        for (i, &a) in SpriteKind::ALL.iter().enumerate() {
            for &b in &SpriteKind::ALL[i + 1..] {
                let differs = grid.iter().any(|&(v, u)| a.covers(v, u) != b.covers(v, u));
                assert!(differs, "{a:?} and {b:?} are identical on the grid");
            }
        }
    }

    #[test]
    fn render_puts_mass_inside_bbox() {
        let mut img = GrayImage::zeros(32, 32);
        SpriteKind::Disc.render(&mut img, 16.0, 16.0, 12.0, 255);
        assert!(img.get(16, 16) > 200);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(16, 2), 0);
    }

    #[test]
    fn render_clips_at_frame_edge() {
        let mut img = GrayImage::zeros(16, 16);
        // Mostly off-frame to the top-left; must not panic.
        SpriteKind::Square.render(&mut img, 1.0, 1.0, 12.0, 200);
        assert!(img.get(0, 0) > 0);
    }

    #[test]
    fn fractional_position_shifts_mass() {
        let mut a = GrayImage::zeros(32, 32);
        let mut b = GrayImage::zeros(32, 32);
        SpriteKind::Square.render(&mut a, 16.0, 16.0, 10.0, 255);
        SpriteKind::Square.render(&mut b, 16.0, 16.5, 10.0, 255);
        assert_ne!(a, b, "half-pixel shift must change the rendering");
    }
}
