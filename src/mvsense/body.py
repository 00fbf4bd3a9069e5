"""Cylinder human-body model: 17 keypoints, 10 keyparts, directed tree.

Keypoints follow the COCO ordering (0 nose ... 16 right ankle). Keyparts
are rigid cylinders joined at keypoints; the torso is the root and every
other part hangs off it parent-before-child:

    torso(0) -> head(1), upper arms(2, 4), upper legs(6, 8)
    upper segment -> its lower segment (3, 5, 7, 9)

A part's pose is its world-frame cylinder (base at the proximal joint,
axis toward the distal joint); spin about a part's own cylinder axis is
not modeled.

Keypoint positions are one (17, 3) world table in keypoint order, the
table ``keypoints.fuse`` returns, with a NaN row for a keypoint not
known. The tree keeps a copy, and only this module reads part states
from it or writes into it. Posing the model from joint angles is ground
truth, not perception: that forward kinematics lives in ``simulator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Cylinder, normalize

# COCO keypoint indices
NOSE, L_EYE, R_EYE, L_EAR, R_EAR = 0, 1, 2, 3, 4
L_SHOULDER, R_SHOULDER = 5, 6
L_ELBOW, R_ELBOW = 7, 8
L_WRIST, R_WRIST = 9, 10
L_HIP, R_HIP = 11, 12
L_KNEE, R_KNEE = 13, 14
L_ANKLE, R_ANKLE = 15, 16

NUM_KEYPOINTS = 17

# keypart indices
TORSO, HEAD = 0, 1
L_UPPER_ARM, L_LOWER_ARM = 2, 3
R_UPPER_ARM, R_LOWER_ARM = 4, 5
L_UPPER_LEG, L_LOWER_LEG = 6, 7
R_UPPER_LEG, R_LOWER_LEG = 8, 9

NUM_KEYPARTS = 10

KEYPART_NAMES = (
    "torso", "head",
    "left_upper_arm", "left_lower_arm",
    "right_upper_arm", "right_lower_arm",
    "left_upper_leg", "left_lower_leg",
    "right_upper_leg", "right_lower_leg",
)

# parent of each keypart; torso is the root
PARENT = {
    TORSO: None,
    HEAD: TORSO,
    L_UPPER_ARM: TORSO,
    L_LOWER_ARM: L_UPPER_ARM,
    R_UPPER_ARM: TORSO,
    R_LOWER_ARM: R_UPPER_ARM,
    L_UPPER_LEG: TORSO,
    L_LOWER_LEG: L_UPPER_LEG,
    R_UPPER_LEG: TORSO,
    R_LOWER_LEG: R_UPPER_LEG,
}

# keypoints encompassed by each keypart (segment level)
PART_KEYPOINTS = {
    TORSO: (L_SHOULDER, R_SHOULDER, L_HIP, R_HIP),
    HEAD: (NOSE, L_EYE, R_EYE, L_EAR, R_EAR),
    L_UPPER_ARM: (L_SHOULDER, L_ELBOW),
    L_LOWER_ARM: (L_ELBOW, L_WRIST),
    R_UPPER_ARM: (R_SHOULDER, R_ELBOW),
    R_LOWER_ARM: (R_ELBOW, R_WRIST),
    L_UPPER_LEG: (L_HIP, L_KNEE),
    L_LOWER_LEG: (L_KNEE, L_ANKLE),
    R_UPPER_LEG: (R_HIP, R_KNEE),
    R_LOWER_LEG: (R_KNEE, R_ANKLE),
}

# PART_KEYPOINT_MASK[part, kp]: the keypoint is on the part
PART_KEYPOINT_MASK = np.array([[kp in PART_KEYPOINTS[p] for kp in range(NUM_KEYPOINTS)]
                               for p in range(NUM_KEYPARTS)])

# joint keypoint labelling the edge parent -> child (None: head articulates
# at the synthetic neck, the shoulder midpoint)
EDGE_KEYPOINT = {
    HEAD: None,
    L_UPPER_ARM: L_SHOULDER,
    L_LOWER_ARM: L_ELBOW,
    R_UPPER_ARM: R_SHOULDER,
    R_LOWER_ARM: R_ELBOW,
    L_UPPER_LEG: L_HIP,
    L_LOWER_LEG: L_KNEE,
    R_UPPER_LEG: R_HIP,
    R_LOWER_LEG: R_KNEE,
}

# distal keypoint of each limb segment (None for torso / head)
DISTAL_KEYPOINT = {
    L_UPPER_ARM: L_ELBOW, L_LOWER_ARM: L_WRIST,
    R_UPPER_ARM: R_ELBOW, R_LOWER_ARM: R_WRIST,
    L_UPPER_LEG: L_KNEE, L_LOWER_LEG: L_ANKLE,
    R_UPPER_LEG: R_KNEE, R_LOWER_LEG: R_ANKLE,
}

@dataclass(frozen=True)
class PartDimensions:
    """Cylinder radius/height per keypart plus torso anchor widths.

    The model treats these as predefined; scenario files may override any
    of them.
    """

    radius: tuple = (0.15, 0.10, 0.05, 0.05, 0.05, 0.05, 0.07, 0.06, 0.07, 0.06)
    height: tuple = (0.55, 0.24, 0.30, 0.28, 0.30, 0.28, 0.42, 0.42, 0.42, 0.42)
    shoulder_width: float = 0.36
    hip_width: float = 0.26


@dataclass
class KeypartState:
    """World-frame pose of one keypart cylinder.

    ``frame`` is the part's orthonormal frame (columns x-lateral, y-?, z)
    and is only required for the torso, whose lateral axes position the
    shoulder/hip anchors; limbs are fully described by base + axis.
    """

    part: int
    base: np.ndarray
    axis: np.ndarray
    height: float
    radius: float
    frame: np.ndarray | None = None

    def cylinder(self) -> Cylinder:
        return Cylinder(self.base, normalize(self.axis), self.height, self.radius)

    @property
    def tip(self) -> np.ndarray:
        return self.base + self.axis * self.height

    def copy(self) -> "KeypartState":
        return KeypartState(
            self.part,
            self.base.copy(),
            self.axis.copy(),
            self.height,
            self.radius,
            None if self.frame is None else self.frame.copy(),
        )


@dataclass
class TreeNode:
    part: int
    present: bool = False
    supplemented: bool = False
    state: KeypartState | None = None
    registered: bool = False
    note: str = ""

    @property
    def active(self) -> bool:
        return self.present or self.supplemented


@dataclass
class BodyTree:
    """Directed keypart tree with presence flags and estimated keypoints.

    ``keypoints`` is the (17, 3) world keypoint table in keypoint order,
    the one ``keypoints.fuse`` returns: a NaN row is a keypoint not known.
    """

    nodes: dict = field(default_factory=dict)
    keypoints: np.ndarray = field(
        default_factory=lambda: np.full((NUM_KEYPOINTS, 3), np.nan))
    excluded: list = field(default_factory=list)

    def __post_init__(self):
        if not self.nodes:
            self.nodes = {p: TreeNode(p) for p in range(NUM_KEYPARTS)}

    def traversal(self) -> list:
        """Active parts, parents strictly before children."""
        out = []
        for p in range(NUM_KEYPARTS):  # index order is already topological
            if self.nodes[p].active:
                out.append(p)
        return out


def build_tree(present_parts) -> BodyTree:
    """Tree with presence flags set from the observed keypart set."""
    tree = BodyTree()
    for p in present_parts:
        if p not in tree.nodes:
            raise ValueError(f"unknown keypart {p}")
        tree.nodes[p].present = True
    return tree


# the torso anchors' rows of a keypoint table (left shoulder, right
# shoulder, left hip, right hip), as a list for numpy indexing
TORSO_ROWS = list(PART_KEYPOINTS[TORSO])


def neck_point(keypoints: np.ndarray) -> np.ndarray | None:
    """The shoulder midpoint, or None unless both shoulders are known."""
    shoulders = keypoints[[L_SHOULDER, R_SHOULDER]]
    if np.isnan(shoulders[:, 0]).any():
        return None
    return 0.5 * (shoulders[0] + shoulders[1])


def fit_torso_state(keypoints: np.ndarray, dims: PartDimensions) -> KeypartState | None:
    """Torso pose from its anchor keypoints (5, 6, 11, 12).

    With both shoulders and both hips the frame comes from the anchor
    plane: origin at the hip midpoint, up axis along hips->shoulders,
    lateral axis along left->right shoulder projected onto the plane.
    Three anchors reconstruct the fourth by parallelogram symmetry; two
    same-level anchors (both shoulders or both hips) fall back to an
    upright guess. Returns None for any other pair and for fewer anchors.
    """
    a = keypoints[TORSO_ROWS]  # left/right shoulder, left/right hip
    known = ~np.isnan(a[:, 0])
    count = int(known.sum())
    if count < 2:
        return None

    if count == 3:
        # parallelogram symmetry: missing = level-mate + side-mate - diagonal
        i = int(np.argmin(known))
        a[i] = a[i ^ 1] + a[i ^ 2] - a[i ^ 3]

    # each case gives the up axis (upright from two anchors), the raw
    # lateral direction and the base
    if count >= 3:
        hip_mid = 0.5 * (a[2] + a[3])
        up = 0.5 * (a[0] + a[1]) - hip_mid
        if np.linalg.norm(up) < 1e-6:
            return None
        up, lat, base = normalize(up), a[1] - a[0], hip_mid
    elif known[0] and known[1]:
        up = np.array([0.0, 0.0, 1.0])
        lat, base = a[1] - a[0], 0.5 * (a[0] + a[1]) - up * dims.height[TORSO]
    elif known[2] and known[3]:
        up = np.array([0.0, 0.0, 1.0])
        lat, base = a[3] - a[2], 0.5 * (a[2] + a[3])
    else:
        return None
    lat = lat - (lat @ up) * up
    if np.linalg.norm(lat) < 1e-6:
        return None
    lat = normalize(lat)

    fwd = np.cross(lat, up)
    frame = np.column_stack([lat, up, fwd])
    return KeypartState(
        TORSO, base, up,
        dims.height[TORSO], dims.radius[TORSO], frame,
    )


def torso_anchor_points(state: KeypartState, dims: PartDimensions) -> np.ndarray:
    """Shoulder/hip keypoint positions implied by a torso state, as the
    (4, 3) rows of ``TORSO_ROWS``."""
    half = 0.5 * np.array([-dims.shoulder_width, dims.shoulder_width,
                           -dims.hip_width, dims.hip_width])
    top = state.tip
    return np.array([top, top, state.base, state.base]) + half[:, None] * state.frame[:, 0]


def _limb_supplement_state(part: int, keypoints: np.ndarray,
                           dims: PartDimensions) -> KeypartState | None:
    p0 = keypoints[EDGE_KEYPOINT[part]].copy()  # the table is written in place later
    p1 = keypoints[DISTAL_KEYPOINT[part]]
    if np.isnan(p0[0]) or np.isnan(p1[0]) or np.linalg.norm(p1 - p0) < 1e-9:
        return None
    return KeypartState(
        part, p0, normalize(p1 - p0),
        dims.height[part], dims.radius[part],
    )


def head_state_from_keypoints(keypoints: np.ndarray,
                              dims: PartDimensions) -> KeypartState | None:
    """Head axis from the face-keypoint centroid relative to the neck."""
    face = keypoints[list(PART_KEYPOINTS[HEAD])]
    face = face[~np.isnan(face[:, 0])]
    neck = neck_point(keypoints)
    if not len(face) or neck is None:
        return None
    centroid = np.mean(face, axis=0)
    d = centroid - neck
    if np.linalg.norm(d) < 1e-9:
        return None
    return KeypartState(
        HEAD, neck, normalize(d),
        dims.height[HEAD], dims.radius[HEAD],
    )


def supplement_state(part: int, keypoints: np.ndarray,
                     dims: PartDimensions) -> KeypartState | None:
    """Keypoint-derived state for a node inserted only for connectivity.

    Only a parent is ever supplemented: the torso or an upper limb.
    """
    if part == TORSO:
        return fit_torso_state(keypoints, dims)
    return _limb_supplement_state(part, keypoints, dims)


def augment(tree: BodyTree, keypoints: np.ndarray, dims: PartDimensions) -> BodyTree:
    """Mark the minimal absent ancestors as supplemented so every present
    part connects to the root.

    The tree takes a copy of the (17, 3) fused keypoint table, and the
    supplement states come from it. A present part whose required
    supplements cannot be localized is excluded from the tree and
    recorded in ``tree.excluded``.
    """
    tree.keypoints = np.array(keypoints, dtype=np.float64)

    # each present part's absent ancestors, root last
    missing = {}
    for p in range(NUM_KEYPARTS):
        if tree.nodes[p].present:
            missing[p] = []
            q = PARENT[p]
            while q is not None:
                if not tree.nodes[q].present:
                    missing[p].append(q)
                q = PARENT[q]
    if not missing:
        return tree

    # resolve supplements root-first so dependents can assume ancestors exist
    states = {q: supplement_state(q, tree.keypoints, dims)
              for q in sorted({q for chain in missing.values() for q in chain})}

    for p, chain in missing.items():
        if any(states[q] is None for q in chain):
            tree.nodes[p].present = False
            tree.nodes[p].note = "excluded: supplement chain unanchorable"
            tree.excluded.append(p)

    # keep only supplements still required by surviving parts
    for q in sorted({q for p, chain in missing.items() if tree.nodes[p].present
                     for q in chain}):
        node = tree.nodes[q]
        node.supplemented = True
        node.state = states[q]
        if q == TORSO:
            # record the implied anchors so children can articulate
            anchors = tree.keypoints[TORSO_ROWS]
            tree.keypoints[TORSO_ROWS] = np.where(
                np.isnan(anchors[:, :1]), torso_anchor_points(states[q], dims), anchors)
    return tree


def parent_joint_position(part: int, tree: BodyTree) -> np.ndarray | None:
    """World position of the joint where ``part`` attaches to its parent,
    a new array (the keypoint table is written in place)."""
    kp = EDGE_KEYPOINT.get(part)
    if kp is None:  # head: synthetic neck
        parent = tree.nodes[TORSO]
        if parent.state is not None:
            return parent.state.tip
        return neck_point(tree.keypoints)
    if np.isnan(tree.keypoints[kp, 0]):
        return None
    return tree.keypoints[kp].copy()


def initial_state(part: int, tree: BodyTree, dims: PartDimensions) -> KeypartState | None:
    """Initial coarse state of a part to register, from the keypoint table.

    Every part but the torso starts at ``parent_joint_position``.
    """
    if part == TORSO:
        return fit_torso_state(tree.keypoints, dims)
    anchor = parent_joint_position(part, tree)
    if part == HEAD:
        st = head_state_from_keypoints(tree.keypoints, dims)
        if st is None and anchor is not None:
            torso = tree.nodes[TORSO].state
            axis = torso.axis if torso is not None else np.array([0.0, 0.0, 1.0])
            st = KeypartState(part, anchor, axis,
                              dims.height[part], dims.radius[part])
        elif st is not None and anchor is not None:
            st.base = anchor
        return st
    if anchor is None:
        return None
    distal = tree.keypoints[DISTAL_KEYPOINT[part]]
    if not np.isnan(distal[0]):
        d = distal - anchor
        length = float(np.linalg.norm(d))
        # a grossly wrong segment length means the distal lift was polluted
        h = dims.height[part]
        if 0.45 * h <= length <= 1.5 * h:
            return KeypartState(part, anchor, normalize(d),
                                h, dims.radius[part])
    # no distal evidence: continue along the parent axis (rest-like)
    parent = tree.nodes[PARENT[part]].state
    if parent is None:
        return None
    axis = parent.axis if PARENT[part] != TORSO else -parent.axis
    return KeypartState(part, anchor, axis.copy(),
                        dims.height[part], dims.radius[part])


def enforce_joint_constraints(tree: BodyTree, dims: PartDimensions) -> BodyTree:
    """Snap each child's proximal endpoint onto its parent joint.

    The torso's state writes its four anchor rows; orientation, height
    and radius are preserved, and the keypoints attached to moved joints
    are updated to stay consistent. Idempotent.
    """
    for part in tree.traversal():
        state = tree.nodes[part].state
        if state is None:
            continue
        if part == TORSO:
            tree.keypoints[TORSO_ROWS] = torso_anchor_points(state, dims)
            continue
        anchor = parent_joint_position(part, tree)
        if anchor is None:
            continue
        state.base = anchor
        kp = EDGE_KEYPOINT.get(part)
        if kp is not None:
            tree.keypoints[kp] = state.base
        dist = DISTAL_KEYPOINT.get(part)
        if dist is not None:
            tree.keypoints[dist] = state.tip
    return tree
