//! [`ExecutionStrategy`] implementations for the Skinner engines, so they
//! plug into the shared registry alongside the baselines and any external
//! engine.

use skinner_exec::{ExecContext, ExecOutcome, ExecutionStrategy};
use skinner_query::JoinQuery;

use crate::config::{SkinnerCConfig, SkinnerGConfig, SkinnerHConfig};
use crate::skinner_c::engine::run_skinner_c;
use crate::skinner_g::SkinnerG;
use crate::skinner_h::run_skinner_h;

/// Skinner-C: the customized engine (paper Section 4.5).
#[derive(Debug, Clone, Default)]
pub struct SkinnerCStrategy(pub SkinnerCConfig);

impl ExecutionStrategy for SkinnerCStrategy {
    fn name(&self) -> &str {
        "Skinner-C"
    }

    fn execute(&self, query: &JoinQuery, ctx: &ExecContext) -> ExecOutcome {
        run_skinner_c(query, ctx, &self.0)
    }
}

/// Skinner-G on the generic engine (Section 4.3).
#[derive(Debug, Clone, Default)]
pub struct SkinnerGStrategy(pub SkinnerGConfig);

impl ExecutionStrategy for SkinnerGStrategy {
    fn name(&self) -> &str {
        "Skinner-G"
    }

    fn execute(&self, query: &JoinQuery, ctx: &ExecContext) -> ExecOutcome {
        SkinnerG::new(query, ctx, self.0.clone()).run_to_completion()
    }
}

/// Skinner-H hybrid (Section 4.4).
#[derive(Debug, Clone, Default)]
pub struct SkinnerHStrategy(pub SkinnerHConfig);

impl ExecutionStrategy for SkinnerHStrategy {
    fn name(&self) -> &str {
        "Skinner-H"
    }

    fn execute(&self, query: &JoinQuery, ctx: &ExecContext) -> ExecOutcome {
        run_skinner_h(query, ctx, &self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_exec::ReferenceStrategy;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog, Value};

    fn bind(sql: &str, cat: &Catalog) -> JoinQuery {
        let udfs = UdfRegistry::new();
        match parse_statement(sql).unwrap() {
            skinner_query::ast::Statement::Select(s) => bind_select(&s, cat, &udfs).unwrap(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn trait_objects_run_all_three_engines() {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("id", Int)]);
        let mut b = cat.builder("b", schema![("aid", Int)]);
        for i in 0..25 {
            a.push_row(&[Value::Int(i)]);
            b.push_row(&[Value::Int(i % 10)]);
        }
        cat.register(a.finish());
        cat.register(b.finish());
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let ctx = ExecContext::default();
        let expected = ReferenceStrategy.execute(&q, &ctx).result.canonical_rows();
        let strategies: Vec<Box<dyn ExecutionStrategy>> = vec![
            Box::new(SkinnerCStrategy::default()),
            Box::new(SkinnerGStrategy::default()),
            Box::new(SkinnerHStrategy::default()),
        ];
        for s in strategies {
            let out = s.execute(&q, &ctx);
            assert!(!out.timed_out, "{}", s.name());
            assert_eq!(out.result.canonical_rows(), expected, "{}", s.name());
        }
    }
}
