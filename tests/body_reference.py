"""The dict-keyed supplementation that ``mvsense.body`` replaced, kept as a
bitwise oracle.

Here the fused keypoints are a dict keypoint -> world position holding
only the known keypoints, where the live code reads a (17, 3) table with
NaN rows. ``neck_point``, ``fit_torso_state`` (with its four-entry
parallelogram table), ``head_state_from_keypoints``,
``_limb_supplement_state``, ``supplement_state``, ``torso_anchor_points``
and ``augment`` (three ``PARENT`` walks) are the bodies from before that
change. ``dict_tree`` builds a tree whose keypoint table is such a dict,
``rows_of`` turns a (17, 3) table into one, and ``assert_same_augment``
compares a live tree with an oracle tree: node flags and notes, states
by their bytes, ``excluded`` and every keypoint, NaN rows included. The
live code must give the same bits on every input.

``pose_from_dofs`` is the forward kinematics from before it moved into
``mvsense.simulator``: it walks ``DOF_LAYOUT``, a table of (part, dof
count) pairs, and takes each limb's reference frame from ``_upper_ref``,
``_head_ref`` or its parent. It returns the states and the keypoint
table, which must match the live ones bit for bit.
"""

import numpy as np

from mvsense import body
from mvsense.body import (
    DISTAL_KEYPOINT,
    EDGE_KEYPOINT,
    HEAD,
    L_EAR,
    L_EYE,
    L_HIP,
    L_SHOULDER,
    NOSE,
    NUM_KEYPARTS,
    NUM_KEYPOINTS,
    PARENT,
    PART_KEYPOINTS,
    R_EAR,
    R_EYE,
    R_HIP,
    R_SHOULDER,
    TORSO,
    TORSO_ROWS,
    BodyTree,
    KeypartState,
    PartDimensions,
)
from mvsense.geometry import normalize, rot_x, rot_y, rot_z


def dict_tree(present_parts) -> BodyTree:
    """``body.build_tree`` with an empty dict as its keypoint table."""
    tree = body.build_tree(present_parts)
    tree.keypoints = {}
    return tree


def rows_of(table: np.ndarray) -> dict:
    """The known rows of a (17, 3) table as keypoint -> row."""
    return {k: table[k] for k in range(NUM_KEYPOINTS) if not np.isnan(table[k, 0])}


def neck_point(keypoints: dict) -> np.ndarray | None:
    if L_SHOULDER in keypoints and R_SHOULDER in keypoints:
        return 0.5 * (np.asarray(keypoints[L_SHOULDER]) + np.asarray(keypoints[R_SHOULDER]))
    return None


def fit_torso_state(keypoints: dict, dims: PartDimensions) -> KeypartState | None:
    anchors = {k: np.asarray(keypoints[k], dtype=np.float64)
               for k in (L_SHOULDER, R_SHOULDER, L_HIP, R_HIP) if k in keypoints}
    if len(anchors) < 2:
        return None

    if len(anchors) == 3:
        # parallelogram symmetry: missing = level-mate + side-mate - diagonal
        missing = next(k for k in (L_SHOULDER, R_SHOULDER, L_HIP, R_HIP) if k not in anchors)
        level, side, diag = {
            L_SHOULDER: (R_SHOULDER, L_HIP, R_HIP),
            R_SHOULDER: (L_SHOULDER, R_HIP, L_HIP),
            L_HIP: (R_HIP, L_SHOULDER, R_SHOULDER),
            R_HIP: (L_HIP, R_SHOULDER, L_SHOULDER),
        }[missing]
        anchors[missing] = anchors[level] + anchors[side] - anchors[diag]

    if len(anchors) == 4:
        sh_mid = 0.5 * (anchors[L_SHOULDER] + anchors[R_SHOULDER])
        hip_mid = 0.5 * (anchors[L_HIP] + anchors[R_HIP])
        up = sh_mid - hip_mid
        if np.linalg.norm(up) < 1e-6:
            return None
        up = normalize(up)
        lat = anchors[R_SHOULDER] - anchors[L_SHOULDER]
        lat = lat - (lat @ up) * up
        if np.linalg.norm(lat) < 1e-6:
            return None
        lat = normalize(lat)
        base = hip_mid
    else:
        # two anchors: assume upright, derive what we can
        if L_SHOULDER in anchors and R_SHOULDER in anchors:
            sh_mid = 0.5 * (anchors[L_SHOULDER] + anchors[R_SHOULDER])
            up = np.array([0.0, 0.0, 1.0])
            lat = anchors[R_SHOULDER] - anchors[L_SHOULDER]
            base = sh_mid - up * dims.height[TORSO]
        elif L_HIP in anchors and R_HIP in anchors:
            hip_mid = 0.5 * (anchors[L_HIP] + anchors[R_HIP])
            up = np.array([0.0, 0.0, 1.0])
            lat = anchors[R_HIP] - anchors[L_HIP]
            base = hip_mid
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


def torso_anchor_points(state: KeypartState, dims: PartDimensions) -> dict:
    lat = state.frame[:, 0]
    top = state.tip
    base = state.base
    return {
        L_SHOULDER: top - 0.5 * dims.shoulder_width * lat,
        R_SHOULDER: top + 0.5 * dims.shoulder_width * lat,
        L_HIP: base - 0.5 * dims.hip_width * lat,
        R_HIP: base + 0.5 * dims.hip_width * lat,
    }


def _limb_supplement_state(part: int, keypoints: dict, dims: PartDimensions) -> KeypartState | None:
    prox = EDGE_KEYPOINT[part]
    dist = DISTAL_KEYPOINT.get(part)
    if prox not in keypoints or dist not in keypoints:
        return None
    p0 = np.asarray(keypoints[prox], dtype=np.float64)
    p1 = np.asarray(keypoints[dist], dtype=np.float64)
    if np.linalg.norm(p1 - p0) < 1e-9:
        return None
    return KeypartState(
        part, p0, normalize(p1 - p0),
        dims.height[part], dims.radius[part],
    )


def head_state_from_keypoints(keypoints: dict, dims: PartDimensions) -> KeypartState | None:
    face = [np.asarray(keypoints[k], dtype=np.float64)
            for k in PART_KEYPOINTS[HEAD] if k in keypoints]
    neck = neck_point(keypoints)
    if not face or neck is None:
        return None
    centroid = np.mean(face, axis=0)
    d = centroid - neck
    if np.linalg.norm(d) < 1e-9:
        return None
    return KeypartState(
        HEAD, neck, normalize(d),
        dims.height[HEAD], dims.radius[HEAD],
    )


def supplement_state(part: int, keypoints: dict, dims: PartDimensions) -> KeypartState | None:
    if part == TORSO:
        return fit_torso_state(keypoints, dims)
    if part == HEAD:
        return head_state_from_keypoints(keypoints, dims)
    return _limb_supplement_state(part, keypoints, dims)


def augment(tree: BodyTree, fused_keypoints: dict, dims: PartDimensions) -> BodyTree:
    tree.keypoints.update(
        {k: np.asarray(v, dtype=np.float64) for k, v in fused_keypoints.items()}
    )

    present = [p for p in range(NUM_KEYPARTS) if tree.nodes[p].present]
    if not present:
        return tree

    needed = set()
    for p in present:
        q = PARENT[p]
        while q is not None:
            if not tree.nodes[q].present:
                needed.add(q)
            q = PARENT[q]

    # resolve supplements root-first so dependents can assume ancestors exist
    states = {}
    unanchorable = set()
    for q in sorted(needed):
        state = supplement_state(q, tree.keypoints, dims)
        if state is None:
            unanchorable.add(q)
        else:
            states[q] = state

    for p in present:
        q = PARENT[p]
        blocked = False
        while q is not None:
            if not tree.nodes[q].present and (q in unanchorable):
                blocked = True
                break
            q = PARENT[q]
        if blocked:
            tree.nodes[p].present = False
            tree.nodes[p].note = "excluded: supplement chain unanchorable"
            tree.excluded.append(p)

    # keep only supplements still required by surviving parts
    still_needed = set()
    for p in range(NUM_KEYPARTS):
        if tree.nodes[p].present:
            q = PARENT[p]
            while q is not None:
                if not tree.nodes[q].present:
                    still_needed.add(q)
                q = PARENT[q]
    for q in sorted(still_needed):
        node = tree.nodes[q]
        node.supplemented = True
        node.state = states[q]
        if q == TORSO and not all(
            k in tree.keypoints for k in PART_KEYPOINTS[TORSO]
        ):
            # record the implied anchors so children can articulate
            tree.keypoints.update(
                {k: v for k, v in torso_anchor_points(states[q], dims).items()
                 if k not in tree.keypoints}
            )
    return tree


def assert_same_state(got: KeypartState | None, want: KeypartState | None, what) -> None:
    """Two optional keypart states, arrays compared by their bytes."""
    assert (got is None) == (want is None), what
    if want is None:
        return
    assert (got.part, got.height, got.radius) == (want.part, want.height, want.radius), what
    assert got.base.tobytes() == want.base.tobytes(), what
    assert got.axis.tobytes() == want.axis.tobytes(), what
    assert (got.frame is None) == (want.frame is None), what
    if want.frame is not None:
        assert got.frame.tobytes() == want.frame.tobytes(), what


def assert_same_table(got: np.ndarray, want: dict) -> None:
    """A live (17, 3) keypoint table against an oracle dict: NaN rows
    exactly where the dict has no key, the other rows by their bytes."""
    assert got.shape == (NUM_KEYPOINTS, 3) and got.dtype == np.float64
    assert rows_of(got).keys() == want.keys()
    assert np.isnan(got[[k for k in range(NUM_KEYPOINTS) if k not in want]]).all()
    for k, point in want.items():
        assert got[k].tobytes() == np.asarray(point, dtype=np.float64).tobytes(), k


def assert_same_augment(got: BodyTree, want: BodyTree) -> None:
    """Node flags, notes and states, ``excluded`` and the keypoint table."""
    assert got.excluded == want.excluded
    for part, node in want.nodes.items():
        other = got.nodes[part]
        assert (other.present, other.supplemented, other.registered, other.note) == \
            (node.present, node.supplemented, node.registered, node.note), part
        assert_same_state(other.state, node.state, part)
    assert_same_table(got.keypoints, want.keypoints)


# identity torso frame: lateral +x, up +z, forward -y (standing upright)
_TORSO_FRAME0 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])

# DOF vector layout: torso(6), head(2), then (upper, lower) x (L arm, R arm,
# L leg, R leg), 2 angles each
DOF_LAYOUT = (
    (TORSO, 6), (HEAD, 2),
    (body.L_UPPER_ARM, 2), (body.L_LOWER_ARM, 2),
    (body.R_UPPER_ARM, 2), (body.R_LOWER_ARM, 2),
    (body.L_UPPER_LEG, 2), (body.L_LOWER_LEG, 2),
    (body.R_UPPER_LEG, 2), (body.R_LOWER_LEG, 2),
)

TOTAL_DOF = sum(n for _part, n in DOF_LAYOUT)


def limb_frame(ref_frame: np.ndarray, theta_x: float, theta_y: float) -> np.ndarray:
    return ref_frame @ rot_x(theta_x) @ rot_y(theta_y)


def _upper_ref(torso_frame: np.ndarray) -> np.ndarray:
    # rest direction straight down (-up axis of the torso frame)
    return torso_frame @ rot_x(np.pi / 2.0)


def _head_ref(torso_frame: np.ndarray) -> np.ndarray:
    # rest direction straight up
    return torso_frame @ rot_x(-np.pi / 2.0)


def pose_from_dofs(dofs, dims: PartDimensions) -> tuple:
    """Forward kinematics: 24-vector -> (part states, (17, 3) keypoints)."""
    d = np.asarray(dofs, dtype=np.float64)
    if d.shape != (TOTAL_DOF,):
        raise ValueError(f"expected {TOTAL_DOF} dof values, got {d.shape}")

    px, py, pz, tx, ty, tz = d[:6]
    torso_frame = rot_z(tz) @ rot_y(ty) @ rot_x(tx) @ _TORSO_FRAME0
    base = np.array([px, py, pz])
    up = torso_frame[:, 1]
    states = {
        TORSO: KeypartState(
            TORSO, base, up,
            dims.height[TORSO], dims.radius[TORSO],
            torso_frame,
        )
    }

    keypoints = np.empty((NUM_KEYPOINTS, 3))
    keypoints[TORSO_ROWS] = body.torso_anchor_points(states[TORSO], dims)
    neck = states[TORSO].tip

    idx = 6
    frames = {}
    for part, _n in DOF_LAYOUT[1:]:
        ax, ay = d[idx], d[idx + 1]
        idx += 2
        if part == HEAD:
            ref = _head_ref(torso_frame)
            origin = neck
        elif PARENT[part] == TORSO:
            ref = _upper_ref(torso_frame)
            origin = keypoints[EDGE_KEYPOINT[part]].copy()
        else:
            ref = frames[PARENT[part]]
            origin = states[PARENT[part]].tip
        frame = limb_frame(ref, ax, ay)
        frames[part] = frame
        axis = frame[:, 2]
        states[part] = KeypartState(
            part, origin, axis,
            dims.height[part], dims.radius[part],
        )
        distal = DISTAL_KEYPOINT.get(part)
        if distal is not None:
            keypoints[distal] = states[part].tip

    # face keypoints on the head cylinder
    head = states[HEAD]
    h_fwd = frames[HEAD][:, 1] * -1.0  # forward = -y of the head frame
    h_lat = frames[HEAD][:, 0]
    r, h = head.radius, head.height
    c = head.base + head.axis * (0.62 * h)
    keypoints[NOSE] = c + h_fwd * r
    keypoints[L_EYE] = c + head.axis * (0.12 * h) + h_fwd * (0.85 * r) - h_lat * (0.4 * r)
    keypoints[R_EYE] = c + head.axis * (0.12 * h) + h_fwd * (0.85 * r) + h_lat * (0.4 * r)
    keypoints[L_EAR] = c + head.axis * (0.05 * h) - h_lat * r
    keypoints[R_EAR] = c + head.axis * (0.05 * h) + h_lat * r

    return states, keypoints
