"""Body model tests: keypart tables, tree connectivity, supplementation,
joint constraints, and the simulator's 24-DOF forward kinematics."""

import itertools

import numpy as np
import pytest

import body_reference as ref
from conftest import DIMS, is_connected, limb_angles, rest_dofs
from mvsense import body, scenario, simulator
from mvsense.body import (
    augment,
    build_tree,
    enforce_joint_constraints,
)
from mvsense.geometry import frame_from_axis, normalize
from mvsense.simulator import limb_frame, pose_from_dofs


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

    def test_only_parents_are_supplementable(self):
        assert SUPPLEMENTABLE == [body.TORSO, body.L_UPPER_ARM, body.R_UPPER_ARM,
                                  body.L_UPPER_LEG, body.R_UPPER_LEG]

    def test_dof_accounting_totals_24(self):
        assert simulator.TOTAL_DOF == 24


def full_keypoints(heading=0.0):
    """The (17, 3) keypoint table of a standing pose."""
    return pose_from_dofs(rest_dofs(heading=heading), DIMS).keypoints


class TestBuildAndAugment:
    def test_all_present_is_connected_without_supplements(self):
        tree = build_tree(range(10))
        assert is_connected(tree)
        tree = augment(tree, full_keypoints(), DIMS)
        assert sum(n.supplemented for n in tree.nodes.values()) == 0

    def test_empty_presence_yields_empty_tree(self):
        tree = augment(build_tree([]), full_keypoints(), DIMS)
        assert tree.traversal() == []
        assert is_connected(tree)

    def test_missing_upper_arm_breaks_connectivity_before_augment(self):
        tree = build_tree([body.TORSO, body.L_LOWER_ARM])
        assert not is_connected(tree)

    def test_no_supplement_needed_for_complete_chain(self):
        tree = build_tree([body.TORSO, body.L_UPPER_ARM, body.L_LOWER_ARM])
        tree = augment(tree, full_keypoints(), DIMS)
        assert is_connected(tree)
        assert sum(n.supplemented for n in tree.nodes.values()) == 0

    def test_supplemented_upper_arm_axis_from_joint_keypoints(self):
        kps = full_keypoints()
        tree = build_tree([body.TORSO, body.L_LOWER_ARM])
        tree = augment(tree, kps, DIMS)
        node = tree.nodes[body.L_UPPER_ARM]
        assert node.supplemented
        expected_axis = normalize(kps[body.L_ELBOW] - kps[body.L_SHOULDER])
        assert np.allclose(node.state.axis, expected_axis, atol=1e-12)
        assert np.allclose(node.state.base, kps[body.L_SHOULDER], atol=1e-12)
        assert is_connected(tree)

    def test_torso_supplemented_as_root_from_anchor_keypoints(self):
        kps = full_keypoints()
        tree = build_tree([body.HEAD, body.R_LOWER_LEG])
        tree = augment(tree, kps, DIMS)
        assert tree.nodes[body.TORSO].supplemented
        assert tree.nodes[body.R_UPPER_LEG].supplemented
        assert is_connected(tree)
        # root state fitted from keypoints 5, 6, 11, 12
        torso = tree.nodes[body.TORSO].state
        hip_mid = 0.5 * (kps[body.L_HIP] + kps[body.R_HIP])
        sh_mid = 0.5 * (kps[body.L_SHOULDER] + kps[body.R_SHOULDER])
        assert np.allclose(torso.base, hip_mid, atol=1e-9)
        assert np.allclose(torso.axis, normalize(sh_mid - hip_mid), atol=1e-9)

    def test_unanchorable_branch_is_excluded_and_reported(self):
        # lower arm present, elbow unknown: the upper-arm supplement cannot
        # be localized so the branch is dropped
        kps = full_keypoints()
        kps[body.L_ELBOW] = np.nan
        tree = build_tree([body.TORSO, body.L_LOWER_ARM])
        tree = augment(tree, kps, DIMS)
        assert body.L_LOWER_ARM in tree.excluded
        assert not tree.nodes[body.L_LOWER_ARM].present
        assert is_connected(tree)

    def test_connectivity_over_all_presence_subsets(self):
        kps = full_keypoints()
        for bits in itertools.product((0, 1), repeat=10):
            present = [p for p, b in enumerate(bits) if b]
            tree = augment(build_tree(present), kps, DIMS)
            assert is_connected(tree), f"subset {present} not connected"
            active = set(tree.traversal())
            assert set(present) <= active | set(tree.excluded)

    def test_traversal_parents_first_and_unique(self):
        tree = augment(build_tree(range(10)), full_keypoints(), DIMS)
        order = tree.traversal()
        assert sorted(order) == sorted(set(order))
        seen = set()
        for p in order:
            parent = body.PARENT[p]
            if parent is not None:
                assert parent in seen
            seen.add(p)


def random_keypoints(rng):
    """The keypoint table of a random pose: position, heading, lean and
    every limb angle drawn at random."""
    dofs = rng.uniform(-1.2, 1.2, simulator.TOTAL_DOF)
    dofs[0:3] = rng.uniform(-1.0, 1.0, 3)
    dofs[5] = rng.uniform(-np.pi, np.pi)
    return pose_from_dofs(dofs, DIMS).keypoints


def dropped(table, keypoints):
    """A copy of ``table`` with the rows of ``keypoints`` unknown (NaN)."""
    out = table.copy()
    out[list(keypoints)] = np.nan
    return out


def subsets(items):
    """Every subset of ``items``, as tuples."""
    return [tuple(x for x, b in zip(items, bits) if b)
            for bits in itertools.product((0, 1), repeat=len(items))]


ALL_PRESENCE = [list(present) for present in subsets(range(body.NUM_KEYPARTS))]
TORSO_KEYPOINTS = body.PART_KEYPOINTS[body.TORSO]
# the parts ``augment`` can supplement: every parent, the torso and the upper limbs
SUPPLEMENTABLE = sorted({p for p in body.PARENT.values() if p is not None})


def assert_matches_reference(table, presences=ALL_PRESENCE):
    """The table path against ``body_reference``'s dict path, bit for bit:
    the neck, the head's keypoint state, the supplement state of every part
    ``augment`` can supplement, the torso anchors implied by a fitted
    torso, and ``augment`` under each presence set."""
    before, rows = table.copy(), ref.rows_of(table)
    want_neck, got_neck = ref.neck_point(rows), body.neck_point(table)
    assert (got_neck is None) == (want_neck is None)
    if want_neck is not None:
        assert got_neck.tobytes() == want_neck.tobytes()
    ref.assert_same_state(body.head_state_from_keypoints(table, DIMS),
                          ref.head_state_from_keypoints(rows, DIMS), body.HEAD)
    for part in SUPPLEMENTABLE:
        ref.assert_same_state(body.supplement_state(part, table, DIMS),
                              ref.supplement_state(part, rows, DIMS), part)
    torso = ref.fit_torso_state(rows, DIMS)
    if torso is not None:
        anchors = ref.torso_anchor_points(torso, DIMS)
        assert body.torso_anchor_points(torso, DIMS).tobytes() == \
            np.stack([anchors[k] for k in TORSO_KEYPOINTS]).tobytes()
    for present in presences:
        got = augment(build_tree(present), table, DIMS)
        ref.assert_same_augment(got, ref.augment(ref.dict_tree(present), rows, DIMS))
        assert {p for p, n in got.nodes.items() if n.supplemented} <= set(SUPPLEMENTABLE)
        assert not np.shares_memory(got.keypoints, table)
    assert table.tobytes() == before.tobytes()  # the tree writes only its own copy


class TestMatchesDictReference:
    """``neck_point``, the supplement states and ``augment`` on the (17, 3)
    table give the bits of the dict-keyed oracle in ``body_reference``."""

    @pytest.mark.parametrize("known", subsets(TORSO_KEYPOINTS))
    def test_every_torso_anchor_subset_under_every_presence(self, known, rng):
        # 0-4 anchors: every 3-anchor case, both same-level pairs, both
        # same-side pairs and both diagonals
        table = random_keypoints(rng)
        assert_matches_reference(dropped(table, set(TORSO_KEYPOINTS) - set(known)))

    @pytest.mark.parametrize("known", subsets(body.PART_KEYPOINTS[body.HEAD]))
    def test_partial_faces(self, known, rng):
        face = set(body.PART_KEYPOINTS[body.HEAD])
        assert_matches_reference(dropped(random_keypoints(rng), face - set(known)),
                                 ALL_PRESENCE[::37])

    def test_random_dropped_keypoints(self, rng):
        for _ in range(300):
            table = random_keypoints(rng)
            drop = np.flatnonzero(rng.random(body.NUM_KEYPOINTS) < rng.uniform(0.0, 0.6))
            picks = rng.choice(len(ALL_PRESENCE), 8, replace=False)
            assert_matches_reference(dropped(table, drop),
                                     [ALL_PRESENCE[i] for i in picks])

    def test_coincident_anchors(self, rng):
        cases = []
        for drop in ((), (body.R_HIP,), (body.L_HIP, body.R_HIP)):
            table = dropped(random_keypoints(rng), drop)
            table[body.R_SHOULDER] = table[body.L_SHOULDER]  # no lateral axis
            cases.append(table)
        table = random_keypoints(rng)  # shoulder midpoint on the hip midpoint
        table[[body.L_HIP, body.R_HIP]] = table[[body.L_SHOULDER, body.R_SHOULDER]]
        cases.append(table)
        # shoulders alone, stacked along the upright guess's up axis
        table = dropped(random_keypoints(rng), (body.L_HIP, body.R_HIP))
        table[body.R_SHOULDER] = table[body.L_SHOULDER] + [0.0, 0.0, 0.3]
        cases.append(table)
        table = random_keypoints(rng)  # the face centroid on the neck
        table[list(body.PART_KEYPOINTS[body.HEAD])] = body.neck_point(table)
        cases.append(table)
        table = random_keypoints(rng)  # elbows on the shoulders, a knee on its ankle
        table[[body.L_ELBOW, body.R_ELBOW]] = table[[body.L_SHOULDER, body.R_SHOULDER]]
        table[body.L_KNEE] = table[body.L_ANKLE]
        cases.append(table)
        for table in cases:
            assert_matches_reference(table)


class TestJointConstraints:
    def _chain_tree(self):
        kps = full_keypoints()
        tree = augment(build_tree([body.TORSO, body.L_UPPER_ARM, body.L_LOWER_ARM]),
                       kps, DIMS)
        pose = pose_from_dofs(rest_dofs(), DIMS)
        for p in tree.traversal():
            tree.nodes[p].state = pose.states[p].copy()
        return tree

    def test_displaced_child_snaps_to_parent_joint(self):
        tree = self._chain_tree()
        child = tree.nodes[body.L_UPPER_ARM].state
        child.base = child.base + np.array([0.05, 0.0, 0.0])
        enforce_joint_constraints(tree, DIMS)
        gap = np.linalg.norm(tree.nodes[body.L_UPPER_ARM].state.base
                             - tree.keypoints[body.L_SHOULDER])
        assert gap < 1e-6

    def test_idempotent(self):
        tree = self._chain_tree()
        enforce_joint_constraints(tree, DIMS)
        before = {p: tree.nodes[p].state.base.copy() for p in tree.traversal()}
        enforce_joint_constraints(tree, DIMS)
        for p, base in before.items():
            assert np.allclose(tree.nodes[p].state.base, base, atol=1e-9)

    def test_random_perturbed_chain_gaps_zero_lengths_kept(self, rng):
        for _ in range(20):
            tree = self._chain_tree()
            lengths = {p: tree.nodes[p].state.height for p in tree.traversal()}
            for p in (body.L_UPPER_ARM, body.L_LOWER_ARM):
                st = tree.nodes[p].state
                st.base = st.base + rng.uniform(-0.1, 0.1, 3)
            enforce_joint_constraints(tree, DIMS)
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
        enforce_joint_constraints(tree, DIMS)
        for p, (h, r) in dims_before.items():
            assert tree.nodes[p].state.height == h
            assert tree.nodes[p].state.radius == r

    def test_torso_rows_rewritten_from_the_torso_state(self):
        """The torso's four anchor rows come from its state, not from the
        table it was fitted to."""
        tree = self._chain_tree()
        torso = tree.nodes[body.TORSO].state
        torso.base = torso.base + np.array([0.0, 0.04, -0.02])
        tree.keypoints[body.TORSO_ROWS] = np.nan
        enforce_joint_constraints(tree, DIMS)
        want = body.torso_anchor_points(torso, DIMS)
        assert tree.keypoints[body.TORSO_ROWS].tobytes() == want.tobytes()
        assert tree.nodes[body.L_UPPER_ARM].state.base.tobytes() == \
            want[0].tobytes()


class TestForwardKinematics:
    def test_rest_pose_is_articulated(self):
        pose = pose_from_dofs(rest_dofs(position=(0.5, -0.2, 0.9)), DIMS)
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
        pose = pose_from_dofs(rest_dofs(), DIMS)
        for part, distal in body.DISTAL_KEYPOINT.items():
            assert np.allclose(pose.keypoints[distal], pose.states[part].tip,
                               atol=1e-12)

    def test_needs_24_values(self):
        with pytest.raises(ValueError):
            pose_from_dofs(np.zeros(23), DIMS)

    def test_limb_angle_round_trip(self, rng):
        for _ in range(200):
            ref = frame_from_axis(normalize(rng.normal(size=3)))
            tx = rng.uniform(-1.2, 1.2)
            ty = rng.uniform(-1.2, 1.2)
            axis = limb_frame(ref, tx, ty)[:, 2]
            tx2, ty2 = limb_angles(ref, axis)
            assert np.allclose(limb_frame(ref, tx2, ty2)[:, 2], axis, atol=1e-9)

    def test_heading_rotates_pose(self):
        p0 = pose_from_dofs(rest_dofs(heading=0.0), DIMS)
        p1 = pose_from_dofs(rest_dofs(heading=np.pi / 2), DIMS)
        # shoulders swing with the heading, height stays
        assert not np.allclose(p0.keypoints[body.L_SHOULDER],
                               p1.keypoints[body.L_SHOULDER])
        assert p0.keypoints[body.L_SHOULDER][2] == pytest.approx(
            p1.keypoints[body.L_SHOULDER][2])


class TestForwardKinematicsOracle:
    """``simulator.pose_from_dofs`` against the ``DOF_LAYOUT`` walk it
    replaced: every state's base, axis and frame and the keypoint table,
    bit for bit."""

    @staticmethod
    def assert_same_pose(dofs):
        pose = pose_from_dofs(dofs, DIMS)
        states, keypoints = ref.pose_from_dofs(dofs, DIMS)
        assert sorted(pose.states) == sorted(states) == list(range(body.NUM_KEYPARTS))
        for part, state in states.items():
            ref.assert_same_state(pose.states[part], state, part)
        assert pose.keypoints.tobytes() == keypoints.tobytes()

    def test_rest_pose(self):
        self.assert_same_pose(rest_dofs())

    def test_every_template_waypoint(self):
        for make in scenario.TEMPLATES.values():
            for _t, dofs in make(seed=0).human_waypoints:
                self.assert_same_pose(dofs)

    def test_random_dofs(self, rng):
        for _ in range(300):
            dofs = rng.uniform(-np.pi, np.pi, simulator.TOTAL_DOF)
            dofs[0:3] = rng.uniform(-2.0, 2.0, 3)
            self.assert_same_pose(dofs)
