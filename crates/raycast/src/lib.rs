//! # kdtune-raycast
//!
//! The ray casting renderer and the per-frame tuning workflow of the
//! paper's Figure 4: *register parameters → (start measurement → build
//! kD-tree → render → stop measurement → advance frame)\**. The workflow
//! module is also the one home of the tuned search space and the tuner's
//! measure step and budget loop, which the render service's point-query
//! sessions reuse with a different measured cost.
//!
//! Ray casting (Appel 1968) is deliberately simple — one primary ray per
//! pixel, one shadow ray per hit — so that measured frame time is
//! dominated by the spatial data structure, which is what is being tuned.
//!
//! ```
//! use kdtune_geometry::{Triangle, TriangleMesh, Vec3};
//! use kdtune_kdtree::{build, Algorithm, BuildParams};
//! use kdtune_raycast::{render, Camera};
//! use std::sync::Arc;
//!
//! let mut mesh = TriangleMesh::new();
//! mesh.push_triangle(Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y));
//! let tree = build(Arc::new(mesh), Algorithm::InPlace, &BuildParams::default());
//! let cam = Camera::look_at(Vec3::new(0.3, 0.3, -2.0), Vec3::ZERO, Vec3::Y, 60.0, 32, 32);
//! let (image, stats) = render(&tree, &cam, Vec3::new(0.0, 0.0, -5.0));
//! assert_eq!(image.width(), 32);
//! assert!(stats.primary_hits > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod camera;
mod framebuffer;
mod render;
mod shade;
mod workflow;

pub use camera::{Camera, RayTable};
pub use framebuffer::Framebuffer;
pub use render::{render, render_with, render_with_options, RenderOptions, RenderStats};
pub use shade::shade;
pub use workflow::{
    build_params, register_space, run_frame_with, run_frame_with_options, FrameReport, StopReason,
    TunedHandles, TuningWorkflow,
};
