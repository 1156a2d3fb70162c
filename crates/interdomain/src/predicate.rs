//! Policy predicates: the verification queries of §3.1.
//!
//! "The query is a Boolean condition that an AS wants to verify concerning
//! the behavior of other ASes that it has a business relationship with.
//! For example, two ASes, A and B, agree upon the condition to be
//! verified [...] (e.g., is the route announced by A most preferred by
//! B?)". Predicates evaluate inside the inter-domain controller's enclave
//! over the routing outcome — including each AS's adj-RIB-in — and only
//! the Boolean result leaves.

use crate::compute::RoutingOutcome;
use crate::topology::AsId;

/// The most `And`/`Or`/`Not` nodes [`Predicate::from_bytes`] accepts on
/// one root-to-leaf path. An honest agreement nests a handful.
pub const MAX_DEPTH: usize = 64;

/// A Boolean query over the routing outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Does `of` select the route announced by `neighbor` for `dst`
    /// whenever `neighbor` announced one? (The paper's example promise:
    /// "is the route announced by A most preferred by B?")
    PrefersNeighbor {
        /// The AS whose selection is checked (the promise maker).
        of: AsId,
        /// The neighbor whose announcements should win (the promisee).
        neighbor: AsId,
        /// Destination the promise covers.
        dst: AsId,
    },
    /// Does `src`'s selected route to `dst` have next hop `next_hop`?
    NextHopIs {
        /// Source AS.
        src: AsId,
        /// Destination AS.
        dst: AsId,
        /// Expected first hop.
        next_hop: AsId,
    },
    /// Does `src`'s selected path to `dst` traverse `via`?
    PathContains {
        /// Source AS.
        src: AsId,
        /// Destination AS.
        dst: AsId,
        /// AS that must appear on the path.
        via: AsId,
    },
    /// Does `src`'s selected path to `dst` avoid `avoid`?
    PathAvoids {
        /// Source AS.
        src: AsId,
        /// Destination AS.
        dst: AsId,
        /// AS that must not appear on the path.
        avoid: AsId,
    },
    /// Does `src` have any route to `dst`?
    RouteExists {
        /// Source AS.
        src: AsId,
        /// Destination AS.
        dst: AsId,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Evaluates the predicate over a routing outcome.
    pub fn eval(&self, outcome: &RoutingOutcome) -> bool {
        match self {
            Predicate::PrefersNeighbor { of, neighbor, dst } => {
                // Vacuously true if the neighbor announced nothing.
                let announced = outcome
                    .rib_in
                    .get(of)
                    .and_then(|per_dst| per_dst.get(dst))
                    .map(|routes| routes.iter().any(|r| r.next_hop() == Some(*neighbor)))
                    .unwrap_or(false);
                if !announced {
                    return true;
                }
                outcome
                    .route(*of, *dst)
                    .map(|r| r.next_hop() == Some(*neighbor))
                    .unwrap_or(false)
            }
            Predicate::NextHopIs { src, dst, next_hop } => outcome
                .route(*src, *dst)
                .map(|r| r.next_hop() == Some(*next_hop))
                .unwrap_or(false),
            Predicate::PathContains { src, dst, via } => outcome
                .route(*src, *dst)
                .map(|r| r.contains(*via))
                .unwrap_or(false),
            Predicate::PathAvoids { src, dst, avoid } => outcome
                .route(*src, *dst)
                .map(|r| !r.contains(*avoid))
                .unwrap_or(true),
            Predicate::RouteExists { src, dst } => outcome.route(*src, *dst).is_some(),
            Predicate::And(a, b) => a.eval(outcome) && b.eval(outcome),
            Predicate::Or(a, b) => a.eval(outcome) || b.eval(outcome),
            Predicate::Not(a) => !a.eval(outcome),
        }
    }

    /// The ASes whose routing state this predicate inspects.
    ///
    /// Used by the verification module to enforce that a predicate "examines
    /// only the minimal condition required to verify the agreement, without
    /// leaking additional information": every inspected AS must be one of
    /// the two agreeing parties.
    pub fn subjects(&self) -> Vec<AsId> {
        match self {
            Predicate::PrefersNeighbor { of, .. } => vec![*of],
            Predicate::NextHopIs { src, .. }
            | Predicate::PathContains { src, .. }
            | Predicate::PathAvoids { src, .. }
            | Predicate::RouteExists { src, .. } => vec![*src],
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                let mut s = a.subjects();
                s.extend(b.subjects());
                s.sort();
                s.dedup();
                s
            }
            Predicate::Not(a) => a.subjects(),
        }
    }

    /// Wire encoding (prefix form, one byte tag + u32 operands).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    fn encode(&self, out: &mut Vec<u8>) {
        let ids = |tag: u8, xs: &[AsId], out: &mut Vec<u8>| {
            out.push(tag);
            for x in xs {
                out.extend_from_slice(&x.0.to_le_bytes());
            }
        };
        match self {
            Predicate::PrefersNeighbor { of, neighbor, dst } => {
                ids(1, &[*of, *neighbor, *dst], out)
            }
            Predicate::NextHopIs { src, dst, next_hop } => ids(2, &[*src, *dst, *next_hop], out),
            Predicate::PathContains { src, dst, via } => ids(3, &[*src, *dst, *via], out),
            Predicate::PathAvoids { src, dst, avoid } => ids(4, &[*src, *dst, *avoid], out),
            Predicate::RouteExists { src, dst } => ids(5, &[*src, *dst], out),
            Predicate::And(a, b) => {
                out.push(6);
                a.encode(out);
                b.encode(out);
            }
            Predicate::Or(a, b) => {
                out.push(7);
                a.encode(out);
                b.encode(out);
            }
            Predicate::Not(a) => {
                out.push(8);
                a.encode(out);
            }
        }
    }

    /// Parses [`Predicate::to_bytes`].
    ///
    /// Refuses (`None`) a predicate nesting more than [`MAX_DEPTH`]
    /// `And`/`Or`/`Not` nodes on one path: the parse recurses once per
    /// node, and the bytes come from another AS into the controller
    /// enclave, where a stack overflow would abort it.
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        let (p, used) = Self::decode(buf, 0)?;
        (used == buf.len()).then_some(p)
    }

    /// Parses the predicate at the front of `buf`, under `depth` enclosing
    /// combinators.
    fn decode(buf: &[u8], depth: usize) -> Option<(Self, usize)> {
        let tag = *buf.first()?;
        if matches!(tag, 6..=8) && depth == MAX_DEPTH {
            return None;
        }
        let id = |i: usize| -> Option<AsId> {
            Some(AsId(u32::from_le_bytes(
                buf.get(1 + i * 4..5 + i * 4)?.try_into().ok()?,
            )))
        };
        match tag {
            1 => Some((
                Predicate::PrefersNeighbor {
                    of: id(0)?,
                    neighbor: id(1)?,
                    dst: id(2)?,
                },
                13,
            )),
            2 => Some((
                Predicate::NextHopIs {
                    src: id(0)?,
                    dst: id(1)?,
                    next_hop: id(2)?,
                },
                13,
            )),
            3 => Some((
                Predicate::PathContains {
                    src: id(0)?,
                    dst: id(1)?,
                    via: id(2)?,
                },
                13,
            )),
            4 => Some((
                Predicate::PathAvoids {
                    src: id(0)?,
                    dst: id(1)?,
                    avoid: id(2)?,
                },
                13,
            )),
            5 => Some((
                Predicate::RouteExists {
                    src: id(0)?,
                    dst: id(1)?,
                },
                9,
            )),
            6 | 7 => {
                let (a, ua) = Self::decode(&buf[1..], depth + 1)?;
                let (b, ub) = Self::decode(buf.get(1 + ua..)?, depth + 1)?;
                let node = if tag == 6 {
                    Predicate::And(Box::new(a), Box::new(b))
                } else {
                    Predicate::Or(Box::new(a), Box::new(b))
                };
                Some((node, 1 + ua + ub))
            }
            8 => {
                let (a, ua) = Self::decode(&buf[1..], depth + 1)?;
                Some((Predicate::Not(Box::new(a)), 1 + ua))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_routes, default_policies};
    use crate::topology::{EdgeKind, Topology};

    fn outcome() -> RoutingOutcome {
        let t = Topology::from_edges(
            4,
            vec![
                (AsId(0), AsId(1), EdgeKind::Peering),
                (AsId(0), AsId(2), EdgeKind::TransitTo),
                (AsId(1), AsId(2), EdgeKind::TransitTo),
                (AsId(2), AsId(3), EdgeKind::TransitTo),
            ],
        );
        compute_routes(&t, &default_policies(&t))
    }

    #[test]
    fn next_hop_and_exists() {
        let out = outcome();
        assert!(Predicate::RouteExists {
            src: AsId(0),
            dst: AsId(3)
        }
        .eval(&out));
        assert!(Predicate::NextHopIs {
            src: AsId(0),
            dst: AsId(3),
            next_hop: AsId(2)
        }
        .eval(&out));
        assert!(!Predicate::NextHopIs {
            src: AsId(0),
            dst: AsId(3),
            next_hop: AsId(1)
        }
        .eval(&out));
    }

    #[test]
    fn path_contains_and_avoids() {
        let out = outcome();
        assert!(Predicate::PathContains {
            src: AsId(0),
            dst: AsId(3),
            via: AsId(2)
        }
        .eval(&out));
        assert!(Predicate::PathAvoids {
            src: AsId(0),
            dst: AsId(3),
            avoid: AsId(1)
        }
        .eval(&out));
        // Nonexistent route avoids everything vacuously.
        assert!(Predicate::PathAvoids {
            src: AsId(0),
            dst: AsId(0),
            avoid: AsId(1)
        }
        .eval(&out));
    }

    #[test]
    fn prefers_neighbor_promise() {
        let out = outcome();
        // AS0 hears AS3's prefix only via customer 2, so the promise
        // "AS0 prefers routes announced by AS2 for dst 3" holds.
        assert!(Predicate::PrefersNeighbor {
            of: AsId(0),
            neighbor: AsId(2),
            dst: AsId(3)
        }
        .eval(&out));
        // Vacuous when the neighbor never announced that destination:
        // AS3 announces nothing to AS0 directly (not adjacent).
        assert!(Predicate::PrefersNeighbor {
            of: AsId(0),
            neighbor: AsId(3),
            dst: AsId(3)
        }
        .eval(&out));
    }

    #[test]
    fn boolean_combinators() {
        let out = outcome();
        let t = Predicate::RouteExists {
            src: AsId(0),
            dst: AsId(3),
        };
        let f = Predicate::NextHopIs {
            src: AsId(0),
            dst: AsId(3),
            next_hop: AsId(1),
        };
        assert!(Predicate::And(
            Box::new(t.clone()),
            Box::new(Predicate::Not(Box::new(f.clone())))
        )
        .eval(&out));
        assert!(Predicate::Or(Box::new(f.clone()), Box::new(t.clone())).eval(&out));
        assert!(!Predicate::And(Box::new(t), Box::new(f)).eval(&out));
    }

    #[test]
    fn subjects_collected() {
        let p = Predicate::And(
            Box::new(Predicate::RouteExists {
                src: AsId(1),
                dst: AsId(9),
            }),
            Box::new(Predicate::PrefersNeighbor {
                of: AsId(2),
                neighbor: AsId(1),
                dst: AsId(9),
            }),
        );
        assert_eq!(p.subjects(), vec![AsId(1), AsId(2)]);
    }

    #[test]
    fn wire_roundtrip_nested() {
        let p = Predicate::Or(
            Box::new(Predicate::Not(Box::new(Predicate::PathContains {
                src: AsId(1),
                dst: AsId(2),
                via: AsId(3),
            }))),
            Box::new(Predicate::And(
                Box::new(Predicate::RouteExists {
                    src: AsId(4),
                    dst: AsId(5),
                }),
                Box::new(Predicate::PrefersNeighbor {
                    of: AsId(6),
                    neighbor: AsId(7),
                    dst: AsId(8),
                }),
            )),
        );
        assert_eq!(Predicate::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn wire_rejects_garbage() {
        assert!(Predicate::from_bytes(&[]).is_none());
        assert!(Predicate::from_bytes(&[99]).is_none());
        assert!(Predicate::from_bytes(&[1, 0, 0]).is_none());
        let p = Predicate::RouteExists {
            src: AsId(1),
            dst: AsId(2),
        };
        let mut bytes = p.to_bytes();
        bytes.push(0);
        assert!(Predicate::from_bytes(&bytes).is_none());
    }

    /// A MiB of one combinator tag — 100 kB of `Not` overflowed the stack
    /// before the depth bound — is refused, not a crash.
    #[test]
    fn a_mib_of_nesting_is_refused() {
        for tag in [6u8, 7, 8] {
            assert!(
                Predicate::from_bytes(&vec![tag; 1 << 20]).is_none(),
                "{tag}"
            );
        }
    }

    fn leaf(i: u32) -> Predicate {
        Predicate::RouteExists {
            src: AsId(i),
            dst: AsId(i + 1),
        }
    }

    /// `depth` nodes made by `node` around a leaf.
    fn nested(depth: u32, node: impl Fn(Predicate, u32) -> Predicate) -> Predicate {
        (0..depth).fold(leaf(0), node)
    }

    #[test]
    fn nesting_round_trips_up_to_max_depth_and_no_further() {
        let shapes: [&dyn Fn(Predicate, u32) -> Predicate; 5] = [
            &|p, _| Predicate::Not(Box::new(p)),
            &|p, i| Predicate::And(Box::new(p), Box::new(leaf(i))),
            &|p, i| Predicate::And(Box::new(leaf(i)), Box::new(p)),
            &|p, i| Predicate::Or(Box::new(p), Box::new(leaf(i))),
            &|p, i| Predicate::Or(Box::new(leaf(i)), Box::new(p)),
        ];
        for node in shapes {
            let deepest = nested(MAX_DEPTH as u32, node);
            assert_eq!(Predicate::from_bytes(&deepest.to_bytes()), Some(deepest));
            let too_deep = nested(MAX_DEPTH as u32 + 1, node);
            assert_eq!(Predicate::from_bytes(&too_deep.to_bytes()), None);
        }
    }
}
