//! User mobility: cells and the random-waypoint model.
//!
//! The paper's services are "reconfigured automatically according to
//! user's mobility"; this module provides the mobility signal. Users move
//! across a rectangular field partitioned into a grid of cells (one cell
//! per serving node); a cell change is a *handover* event the adaptive
//! layer reacts to (e.g. migrating the serving component "closer to the
//! demand").

use aas_sim::rng::SimRng;
use aas_sim::time::SimDuration;

/// A 2-D position in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Position {
    /// Euclidean distance to `other`.
    #[must_use]
    pub fn distance(&self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Identifier of a cell in the grid (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

/// A rectangular field split into `cols x rows` equal cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGrid {
    /// Field width (m).
    pub width: f64,
    /// Field height (m).
    pub height: f64,
    /// Number of columns.
    pub cols: u32,
    /// Number of rows.
    pub rows: u32,
}

impl CellGrid {
    /// A grid over `width x height` with `cols x rows` cells.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    #[must_use]
    pub fn new(width: f64, height: f64, cols: u32, rows: u32) -> Self {
        assert!(width > 0.0 && height > 0.0, "field must be non-empty");
        assert!(cols > 0 && rows > 0, "grid must be non-empty");
        CellGrid {
            width,
            height,
            cols,
            rows,
        }
    }

    /// Number of cells.
    #[must_use]
    pub fn cell_count(&self) -> u32 {
        self.cols * self.rows
    }

    /// The cell containing `pos` (clamped to the field).
    #[must_use]
    pub fn cell_of(&self, pos: Position) -> CellId {
        let cx = ((pos.x / self.width * f64::from(self.cols)) as u32).min(self.cols - 1);
        let cy = ((pos.y / self.height * f64::from(self.rows)) as u32).min(self.rows - 1);
        CellId(cy * self.cols + cx)
    }

    /// The center of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    #[must_use]
    pub fn center_of(&self, cell: CellId) -> Position {
        assert!(cell.0 < self.cell_count(), "no such cell");
        let cx = cell.0 % self.cols;
        let cy = cell.0 / self.cols;
        Position {
            x: (f64::from(cx) + 0.5) * self.width / f64::from(self.cols),
            y: (f64::from(cy) + 0.5) * self.height / f64::from(self.rows),
        }
    }
}

/// A user walking the random-waypoint model.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    position: Position,
    target: Position,
    speed: f64,
    min_speed: f64,
    max_speed: f64,
    handovers: u64,
    current_cell: CellId,
    grid: CellGrid,
}

impl RandomWaypoint {
    /// A walker starting at a random position with speeds drawn from
    /// `[min_speed, max_speed]` m/s.
    #[must_use]
    pub fn new(grid: CellGrid, min_speed: f64, max_speed: f64, rng: &mut SimRng) -> Self {
        let position = Position {
            x: rng.uniform(0.0, grid.width),
            y: rng.uniform(0.0, grid.height),
        };
        let target = Position {
            x: rng.uniform(0.0, grid.width),
            y: rng.uniform(0.0, grid.height),
        };
        let speed = rng.uniform(min_speed, max_speed);
        let current_cell = grid.cell_of(position);
        RandomWaypoint {
            position,
            target,
            speed,
            min_speed,
            max_speed,
            handovers: 0,
            current_cell,
            grid,
        }
    }

    /// Current position.
    #[must_use]
    pub fn position(&self) -> Position {
        self.position
    }

    /// Current serving cell.
    #[must_use]
    pub fn cell(&self) -> CellId {
        self.current_cell
    }

    /// Total handovers so far.
    #[must_use]
    pub fn handovers(&self) -> u64 {
        self.handovers
    }

    /// Advances the walker by `dt`; returns `Some(new_cell)` if a handover
    /// happened.
    pub fn step(&mut self, dt: SimDuration, rng: &mut SimRng) -> Option<CellId> {
        let mut remaining = self.speed * dt.as_secs_f64();
        while remaining > 0.0 {
            let to_target = self.position.distance(self.target);
            if to_target <= remaining {
                self.position = self.target;
                remaining -= to_target;
                // Pick the next waypoint and speed.
                self.target = Position {
                    x: rng.uniform(0.0, self.grid.width),
                    y: rng.uniform(0.0, self.grid.height),
                };
                self.speed = rng.uniform(self.min_speed, self.max_speed);
                if to_target == 0.0 {
                    break; // avoid infinite loop at an exact waypoint hit
                }
            } else {
                let f = remaining / to_target;
                self.position = Position {
                    x: self.position.x + (self.target.x - self.position.x) * f,
                    y: self.position.y + (self.target.y - self.position.y) * f,
                };
                remaining = 0.0;
            }
        }
        let cell = self.grid.cell_of(self.position);
        if cell != self.current_cell {
            self.current_cell = cell;
            self.handovers += 1;
            Some(cell)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> CellGrid {
        CellGrid::new(1000.0, 1000.0, 4, 4)
    }

    #[test]
    fn cell_mapping_is_row_major() {
        let g = grid();
        assert_eq!(g.cell_count(), 16);
        assert_eq!(g.cell_of(Position { x: 10.0, y: 10.0 }), CellId(0));
        assert_eq!(g.cell_of(Position { x: 990.0, y: 10.0 }), CellId(3));
        assert_eq!(g.cell_of(Position { x: 10.0, y: 990.0 }), CellId(12));
        assert_eq!(g.cell_of(Position { x: 990.0, y: 990.0 }), CellId(15));
    }

    #[test]
    fn out_of_field_positions_clamp() {
        let g = grid();
        assert_eq!(
            g.cell_of(Position {
                x: 5000.0,
                y: 5000.0
            }),
            CellId(15)
        );
    }

    #[test]
    fn centers_round_trip() {
        let g = grid();
        for i in 0..16 {
            let c = CellId(i);
            assert_eq!(g.cell_of(g.center_of(c)), c);
        }
    }

    #[test]
    fn walker_moves_and_hands_over() {
        let g = grid();
        let mut rng = SimRng::seed_from(42);
        let mut w = RandomWaypoint::new(g, 10.0, 30.0, &mut rng);
        let start = w.position();
        let mut handovers = 0;
        for _ in 0..600 {
            if w.step(SimDuration::from_secs(1), &mut rng).is_some() {
                handovers += 1;
            }
        }
        assert!(w.position().distance(start) > 0.0 || handovers > 0);
        assert!(handovers > 0, "10 minutes at 10-30 m/s must cross cells");
        assert_eq!(w.handovers(), handovers);
    }

    #[test]
    fn walker_stays_in_field() {
        let g = grid();
        let mut rng = SimRng::seed_from(7);
        let mut w = RandomWaypoint::new(g, 50.0, 100.0, &mut rng);
        for _ in 0..1000 {
            w.step(SimDuration::from_secs(1), &mut rng);
            let p = w.position();
            assert!(p.x >= 0.0 && p.x <= 1000.0);
            assert!(p.y >= 0.0 && p.y <= 1000.0);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let g = grid();
        let run = |seed| {
            let mut rng = SimRng::seed_from(seed);
            let mut w = RandomWaypoint::new(g, 10.0, 30.0, &mut rng);
            for _ in 0..100 {
                w.step(SimDuration::from_secs(1), &mut rng);
            }
            (w.position().x, w.position().y, w.handovers())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
