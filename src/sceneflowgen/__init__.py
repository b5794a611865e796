"""Procedural stereo scene generation with dense scene-flow ground truth,
a 1D-correlation block matcher, and evaluation metrics."""

from .geometry import (
    CameraIntrinsics, CameraPose, StereoRig,
    depth_to_disparity, disparity_to_depth, project, transform_point, unproject,
)
from .scene import (
    DrivingParams, FlyingThingsParams, SceneSpec,
    generate_driving_preset, generate_flyingthings_scene,
)
from .render import FramePasses, rasterize_frame
from .groundtruth import (
    GroundTruthFrame, compute_occlusion_mask, derive_disparity,
    derive_disparity_change, derive_flow, derive_frame,
    derive_motion_boundaries, reconstruct_scene_flow,
)
from .match import estimate_disparity
from .metrics import MetricReport, aggregate, d1_all, epe_map, render_table
from .pipeline import derive_dataset, generate_dataset

__version__ = "0.1.0"
