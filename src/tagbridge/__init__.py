"""tagbridge: geo-reference fiducial tags from the air, align a locally
navigated trajectory to them, and fuse dense stereo geometry into one
world-frame point cloud."""
