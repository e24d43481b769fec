//! The shard execution layer: runs one shard of a [`CampaignPlan`] and
//! packages the result as a [`PartialArtifact`].
//!
//! [`execute_shard`] runs the shard's cell slice through the scoped-thread
//! executor ([`crate::executor::run_campaign`]). Because every cell seeds
//! purely from its coordinates, a shard run is bit-identical to the same
//! cells inside a full single-process sweep. It is the one execution step
//! of both distributed paths: `campaign shard` runs it on a plan file
//! (remote machines run the same command by hand, or via any job
//! scheduler, and only the partial JSON files travel), and `campaign work`
//! runs it on every shard a coordinator leases — which is also how
//! `campaign run --workers N` executes, over a loopback coordinator.

use crate::artifact::PartialArtifact;
use crate::executor::run_campaign;
use crate::matrix::ScenarioMatrix;
use crate::plan::CampaignPlan;

/// Executes shard `shard_id` of `plan` in-process on `threads` worker
/// threads (0 = all cores) and packages the result.
///
/// # Errors
///
/// Returns a message when `shard_id` is not a shard of the plan.
pub fn execute_shard(
    plan: &CampaignPlan,
    shard_id: usize,
    threads: usize,
) -> Result<PartialArtifact, String> {
    let cells = plan.shard_cells(shard_id)?.to_vec();
    let shard = plan.shards[shard_id];
    let matrix = ScenarioMatrix::from_cells(cells);
    let config = crate::executor::CampaignConfig { threads, ..plan.config.clone() };
    let result = run_campaign(&matrix, &config);
    Ok(PartialArtifact::from_result(
        result,
        shard_id,
        shard.start,
        plan.cells.len(),
        plan.fingerprint(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_campaign_sequential, CampaignConfig};
    use crate::matrix::ScenarioMatrix;

    fn matrix() -> ScenarioMatrix {
        ScenarioMatrix::builder()
            .topologies(["ring:6", "path:5"])
            .protocols(["ssme"])
            .daemons(["sync", "central-rr"])
            .fault_bursts([0, 1])
            .seeds(0..3)
            .build()
    }

    #[test]
    fn shard_execution_matches_the_full_run_slice() {
        let m = matrix();
        let cfg = CampaignConfig { max_steps: 100_000, ..CampaignConfig::default() };
        let plan = CampaignPlan::new(&m, &cfg, 3);
        let full = run_campaign_sequential(&m, &cfg);
        for shard in &plan.shards {
            let partial = execute_shard(&plan, shard.id, 1).expect("valid shard");
            assert_eq!(partial.start, shard.start);
            assert_eq!(partial.end, shard.end);
            assert_eq!(partial.total_cells, m.len());
            for (a, b) in partial.cells.iter().zip(&full.cells[shard.start..shard.end]) {
                assert_eq!(a.cell, b.cell);
                assert_eq!(a.cell_seed, b.cell_seed, "coordinate-pure seeding");
                assert_eq!(a.outcome, b.outcome);
            }
        }
        assert!(execute_shard(&plan, 99, 1).is_err());
    }

    #[test]
    fn partial_artifact_round_trips_through_json() {
        let plan = CampaignPlan::new(
            &matrix(),
            &CampaignConfig { max_steps: 100_000, ..CampaignConfig::default() },
            2,
        );
        let partial = execute_shard(&plan, 0, 1).expect("valid shard");
        let text = partial.to_json();
        let parsed = PartialArtifact::from_json(&text).expect("round trip");
        assert_eq!(parsed.to_json(), text, "lossless round trip");
        assert!(PartialArtifact::from_json(&text.replace("partial/v1", "partial/v9")).is_err());
    }
}
