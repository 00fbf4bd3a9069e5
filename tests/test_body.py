"""Body model tests: keypart tables, tree connectivity, supplementation,
joint constraints, and the 24-DOF forward kinematics."""

import itertools

import numpy as np
import pytest

from conftest import is_connected, limb_angles, rest_dofs
from mvsense import body
from mvsense.body import (
    augment,
    build_tree,
    enforce_joint_constraints,
    limb_frame,
    pose_from_dofs,
)
from mvsense.geometry import frame_from_axis, normalize


class TestTables:
    def test_keypoint_mask_matches_membership(self):
        assert body.PART_KEYPOINT_MASK.shape == (body.NUM_KEYPARTS, body.NUM_KEYPOINTS)
        for part, kps in body.PART_KEYPOINTS.items():
            assert np.flatnonzero(body.PART_KEYPOINT_MASK[part]).tolist() == sorted(kps)

    def test_parent_map(self):
        assert body.PARENT[body.TORSO] is None
        for p in (body.HEAD, body.L_UPPER_ARM, body.R_UPPER_ARM,
                  body.L_UPPER_LEG, body.R_UPPER_LEG):
            assert body.PARENT[p] == body.TORSO
        assert body.PARENT[body.L_LOWER_ARM] == body.L_UPPER_ARM
        assert body.PARENT[body.R_LOWER_ARM] == body.R_UPPER_ARM
        assert body.PARENT[body.L_LOWER_LEG] == body.L_UPPER_LEG
        assert body.PARENT[body.R_LOWER_LEG] == body.R_UPPER_LEG

    def test_exactly_ten_parts_and_17_keypoints(self):
        assert body.NUM_KEYPARTS == 10
        assert body.NUM_KEYPOINTS == 17

    def test_dof_accounting_totals_24(self):
        assert sum(body.PART_DOF.values()) == 24
        assert body.PART_DOF[body.TORSO] == 6
        assert body.PART_DOF[body.HEAD] == 2
        for p in range(2, 10):
            assert body.PART_DOF[p] == 2


def full_keypoints(heading=0.0):
    """All 17 keypoints of a standing pose."""
    return dict(enumerate(pose_from_dofs(rest_dofs(heading=heading)).keypoint_array()))


class TestBuildAndAugment:
    def test_all_present_is_connected_without_supplements(self):
        tree = build_tree(range(10))
        assert is_connected(tree)
        tree = augment(tree, full_keypoints())
        assert sum(n.supplemented for n in tree.nodes.values()) == 0

    def test_empty_presence_yields_empty_tree(self):
        tree = augment(build_tree([]), full_keypoints())
        assert tree.traversal() == []
        assert is_connected(tree)

    def test_missing_upper_arm_breaks_connectivity_before_augment(self):
        tree = build_tree([body.TORSO, body.L_LOWER_ARM])
        assert not is_connected(tree)

    def test_no_supplement_needed_for_complete_chain(self):
        tree = build_tree([body.TORSO, body.L_UPPER_ARM, body.L_LOWER_ARM])
        tree = augment(tree, full_keypoints())
        assert is_connected(tree)
        assert sum(n.supplemented for n in tree.nodes.values()) == 0

    def test_supplemented_upper_arm_axis_from_joint_keypoints(self):
        kps = full_keypoints()
        tree = build_tree([body.TORSO, body.L_LOWER_ARM])
        tree = augment(tree, kps)
        node = tree.nodes[body.L_UPPER_ARM]
        assert node.supplemented
        expected_axis = normalize(np.asarray(kps[body.L_ELBOW])
                                  - np.asarray(kps[body.L_SHOULDER]))
        assert np.allclose(node.state.axis, expected_axis, atol=1e-12)
        assert np.allclose(node.state.base, kps[body.L_SHOULDER], atol=1e-12)
        assert is_connected(tree)

    def test_torso_supplemented_as_root_from_anchor_keypoints(self):
        kps = full_keypoints()
        tree = build_tree([body.HEAD, body.R_LOWER_LEG])
        tree = augment(tree, kps)
        assert tree.nodes[body.TORSO].supplemented
        assert tree.nodes[body.R_UPPER_LEG].supplemented
        assert is_connected(tree)
        # root state fitted from keypoints 5, 6, 11, 12
        torso = tree.nodes[body.TORSO].state
        hip_mid = 0.5 * (np.asarray(kps[body.L_HIP]) + np.asarray(kps[body.R_HIP]))
        sh_mid = 0.5 * (np.asarray(kps[body.L_SHOULDER]) + np.asarray(kps[body.R_SHOULDER]))
        assert np.allclose(torso.base, hip_mid, atol=1e-9)
        assert np.allclose(torso.axis, normalize(sh_mid - hip_mid), atol=1e-9)

    def test_unanchorable_branch_is_excluded_and_reported(self):
        # lower arm present, elbow unknown: the upper-arm supplement cannot
        # be localized so the branch is dropped
        kps = full_keypoints()
        kps.pop(body.L_ELBOW)
        tree = build_tree([body.TORSO, body.L_LOWER_ARM])
        tree = augment(tree, kps)
        assert body.L_LOWER_ARM in tree.excluded
        assert not tree.nodes[body.L_LOWER_ARM].present
        assert is_connected(tree)

    def test_connectivity_over_all_presence_subsets(self):
        kps = full_keypoints()
        for bits in itertools.product((0, 1), repeat=10):
            present = [p for p, b in enumerate(bits) if b]
            tree = augment(build_tree(present), kps)
            assert is_connected(tree), f"subset {present} not connected"
            active = set(tree.traversal())
            assert set(present) <= active | set(tree.excluded)

    def test_traversal_parents_first_and_unique(self):
        tree = augment(build_tree(range(10)), full_keypoints())
        order = tree.traversal()
        assert sorted(order) == sorted(set(order))
        seen = set()
        for p in order:
            parent = body.PARENT[p]
            if parent is not None:
                assert parent in seen
            seen.add(p)


class TestJointConstraints:
    def _chain_tree(self):
        kps = full_keypoints()
        tree = augment(build_tree([body.TORSO, body.L_UPPER_ARM, body.L_LOWER_ARM]),
                       kps)
        pose = pose_from_dofs(rest_dofs())
        for p in tree.traversal():
            tree.nodes[p].state = pose.states[p].copy()
        return tree

    def test_displaced_child_snaps_to_parent_joint(self):
        tree = self._chain_tree()
        child = tree.nodes[body.L_UPPER_ARM].state
        child.base = child.base + np.array([0.05, 0.0, 0.0])
        enforce_joint_constraints(tree)
        gap = np.linalg.norm(tree.nodes[body.L_UPPER_ARM].state.base
                             - tree.keypoints[body.L_SHOULDER])
        assert gap < 1e-6

    def test_idempotent(self):
        tree = self._chain_tree()
        enforce_joint_constraints(tree)
        before = {p: tree.nodes[p].state.base.copy() for p in tree.traversal()}
        enforce_joint_constraints(tree)
        for p, base in before.items():
            assert np.allclose(tree.nodes[p].state.base, base, atol=1e-9)

    def test_random_perturbed_chain_gaps_zero_lengths_kept(self, rng):
        for _ in range(20):
            tree = self._chain_tree()
            lengths = {p: tree.nodes[p].state.height for p in tree.traversal()}
            for p in (body.L_UPPER_ARM, body.L_LOWER_ARM):
                st = tree.nodes[p].state
                st.base = st.base + rng.uniform(-0.1, 0.1, 3)
            enforce_joint_constraints(tree)
            ua = tree.nodes[body.L_UPPER_ARM].state
            la = tree.nodes[body.L_LOWER_ARM].state
            assert np.linalg.norm(ua.base - tree.keypoints[body.L_SHOULDER]) < 1e-9
            assert np.linalg.norm(la.base - ua.tip) < 1e-9
            for p in tree.traversal():
                assert tree.nodes[p].state.height == pytest.approx(lengths[p])

    def test_never_changes_height_or_radius(self, rng):
        tree = self._chain_tree()
        dims_before = {p: (tree.nodes[p].state.height, tree.nodes[p].state.radius)
                       for p in tree.traversal()}
        for p in tree.traversal():
            tree.nodes[p].state.base = tree.nodes[p].state.base + rng.normal(size=3) * 0.02
        enforce_joint_constraints(tree)
        for p, (h, r) in dims_before.items():
            assert tree.nodes[p].state.height == h
            assert tree.nodes[p].state.radius == r


class TestForwardKinematics:
    def test_rest_pose_is_articulated(self):
        pose = pose_from_dofs(rest_dofs(position=(0.5, -0.2, 0.9)))
        for part, parent in body.PARENT.items():
            if parent is None:
                continue
            child = pose.states[part]
            if parent == body.TORSO:
                kp = body.EDGE_KEYPOINT[part]
                joint = (pose.states[body.TORSO].tip if kp is None
                         else pose.keypoints[kp])
            else:
                joint = pose.states[parent].tip
            assert np.allclose(child.base, joint, atol=1e-9)

    def test_keypoints_consistent_with_part_endpoints(self):
        pose = pose_from_dofs(rest_dofs())
        for part, distal in body.DISTAL_KEYPOINT.items():
            assert np.allclose(pose.keypoints[distal], pose.states[part].tip,
                               atol=1e-12)

    def test_needs_24_values(self):
        with pytest.raises(ValueError):
            pose_from_dofs(np.zeros(23))

    def test_limb_angle_round_trip(self, rng):
        for _ in range(200):
            ref = frame_from_axis(normalize(rng.normal(size=3)))
            tx = rng.uniform(-1.2, 1.2)
            ty = rng.uniform(-1.2, 1.2)
            axis = limb_frame(ref, tx, ty)[:, 2]
            tx2, ty2 = limb_angles(ref, axis)
            assert np.allclose(limb_frame(ref, tx2, ty2)[:, 2], axis, atol=1e-9)

    def test_heading_rotates_pose(self):
        p0 = pose_from_dofs(rest_dofs(heading=0.0))
        p1 = pose_from_dofs(rest_dofs(heading=np.pi / 2))
        # shoulders swing with the heading, height stays
        assert not np.allclose(p0.keypoints[body.L_SHOULDER],
                               p1.keypoints[body.L_SHOULDER])
        assert p0.keypoints[body.L_SHOULDER][2] == pytest.approx(
            p1.keypoints[body.L_SHOULDER][2])
