//! `UncertainBipartiteGraph::resident_bytes` is the figure the serving
//! registry budgets under `--mem-budget` and exports as
//! `mpmb_graph_resident_bytes`. It is computed from the graph's
//! dimensions, so nothing ties it to the arrays the graph really holds:
//! a duplicate array added without it, or a lazily built one it counts
//! before it exists, would make the budget lie.
//!
//! This binary installs the counting allocator and checks the figure
//! against the live heap bytes a materialized container leaves behind.
//! It holds one test: the allocator's counters are process-wide.

#[global_allocator]
static ALLOC: memtrack::CountingAllocator = memtrack::CountingAllocator;

use datasets::Dataset;

#[test]
fn resident_bytes_matches_the_heap_a_materialized_graph_holds() {
    // MovieLens 0.10 materializes on one thread; Protein 0.002 is above
    // the edge count where loading and validation fan out.
    for (dataset, scale) in [(Dataset::MovieLens, 0.10), (Dataset::Protein, 0.002)] {
        let generated = dataset.generate(scale, 7);
        assert!(generated.num_edges() >= 10_000, "{dataset:?} {scale}");
        let path = std::env::temp_dir().join(format!(
            "mpmb-resident-{}-{dataset:?}.ubgc",
            std::process::id()
        ));
        bigraph::write_container_path(&generated, &path).expect("write container");
        let reader = bigraph::ContainerReader::open(&path).expect("open container");

        let before = memtrack::live_bytes();
        let g = reader.materialize().expect("materialize");
        let held = memtrack::live_bytes() - before;
        let claimed = g.resident_bytes() as usize;
        assert!(
            held.abs_diff(claimed) * 50 <= claimed,
            "{dataset:?} {scale} ({} edges): materialize left {held} live bytes, \
             resident_bytes() says {claimed}",
            g.num_edges()
        );

        // The OS scan's arrays are already resident: reading them
        // allocates nothing.
        let before = memtrack::live_bytes();
        assert_eq!(g.desc_endpoints().len(), g.num_edges());
        assert_eq!(g.desc_accepts().len(), g.num_edges());
        assert_eq!(memtrack::live_bytes(), before);
        let _ = std::fs::remove_file(&path);
    }
}
